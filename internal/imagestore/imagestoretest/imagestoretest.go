// Package imagestoretest provides an image store for tests.
package imagestoretest

import (
	"testing"

	"jdvs/internal/imagestore"
)

// New returns an empty image store that is closed when t ends.
func New(t testing.TB) *imagestore.Store {
	t.Helper()
	s, err := imagestore.New()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}
