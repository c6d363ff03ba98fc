package index

import (
	"jdvs/internal/topk"
	"jdvs/internal/vecmath"
)

// filterCandidateTarget is how many admitted candidates — as a multiple of
// k — a probe of nprobe lists must surface in expectation for a filtered
// query to be left to the list scan.
const filterCandidateTarget = 3

// admittedBound is the most rows a filtered query can admit: the set bits
// of its admission bitmap plus every committed row past the bitmap's
// coverage, each of which the per-candidate check might still admit.
func (s *Shard) admittedBound(adm *admission) int {
	return adm.matches + max(s.fwd.Len()-int(adm.tail), 0)
}

// exactPlanLimit is the admitted-row count up to which a filtered query is
// answered by scoring its admitted rows exactly instead of scanning lists.
// Its first term is what the probe would score — nprobe lists of mean
// length. Its second is the count below which nprobe lists would surface
// fewer than filterCandidateTarget·k admitted candidates in expectation
// (matches·nprobe/NLists < filterCandidateTarget·k): such a query would need
// a wider probe to fill its page, and scoring every admitted row is the
// widest probe there is, with the brute-force answer.
func (s *Shard) exactPlanLimit(nprobe, k int) int {
	n := s.codebook.K
	perList := (s.inv.Len() + n - 1) / n
	return max(nprobe*perList, (filterCandidateTarget*k*n+nprobe-1)/nprobe)
}

// scoreAdmitted is the exact plan: it scores every row q's admission
// filter admits — the set bits of the admission bitmap below its coverage,
// then the per-candidate check over the rows appended past it — exactly
// against the raw feature rows, and returns the k nearest, sorted, with
// the number of rows scored. Rows are found by validity bit, not by list
// membership, which is safe because a row's feature, forward record,
// category bit, code and list entry all commit before its validity bit
// publishes it.
func (s *Shard) scoreAdmitted(q *query) ([]topk.Item, int) {
	sel := q.sc.selectors(1, q.k)[0]
	scanned := 0
	score := func(id uint32) {
		if row := s.feats.Row(id); row != nil {
			scanned++
			sel.Push(uint64(id), vecmath.L2Squared(q.req.Feature, row))
		}
	}
	q.adm.words.Range(func(id uint32) bool { score(id); return true })
	for id, n := q.adm.tail, uint32(s.fwd.Len()); id < n; id++ {
		if s.admitSlow(id, q.req) {
			score(id)
		}
	}
	return sel.Sorted(), scanned
}
