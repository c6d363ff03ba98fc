package directiverot_test

import (
	"testing"

	"jdvs/internal/analysis"
	"jdvs/internal/analysis/analysistest"
	"jdvs/internal/analysis/passes/directiverot"
	"jdvs/internal/analysis/passes/lockhold"
)

// TestDirectiveRot runs the audit behind a live owner (lockhold), the
// way the checker always runs it: last, over the shared directive index.
func TestDirectiveRot(t *testing.T) {
	analysistest.RunSuite(t, analysistest.TestData(t),
		[]*analysis.Analyzer{lockhold.Analyzer, directiverot.Analyzer},
		"directiverot/...")
}
