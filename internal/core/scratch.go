package core

import (
	"sync"

	"twoview/internal/bitset"
)

// miningScratch holds the per-call working buffers of the round-structured
// miners (MineSelect's scoring cache, scored rules and used-item masks,
// MineGreedy's candidate order, qub verdicts and window buffers). The
// buffers are recycled through the Session (or, for sessionless calls, a
// package-wide pool), so repeated mining calls in one session reach a
// steady state where rounds allocate nothing. Scratch never influences
// results: every buffer is either truncated to zero length or fully
// overwritten before it is read.
type miningScratch struct {
	cache  selectCache  // SELECT: incremental scoring state
	scored []scoredRule // SELECT: per-round scored rules
	usedL  bitset.Set   // SELECT: items used this round, left view
	usedR  bitset.Set   // SELECT: items used this round, right view
	order  []int        // GREEDY: candidate order
	qubOK  []bool       // GREEDY: per-candidate qub verdicts
	idx    []int32      // GREEDY: the window's qub survivors
	delta  []int32      // GREEDY: the window's cover deltas
	views  [][]int32    // GREEDY: per-survivor slices of delta
}

// defaultScratchPool recycles scratch for callers without a Session.
var defaultScratchPool sync.Pool

// getScratch borrows a scratch from the options' session (falling back
// to the package-wide pool); return it with putScratch.
func (o ParallelOptions) getScratch() *miningScratch {
	sc, _ := o.Session.scratchPool().Get().(*miningScratch)
	if sc == nil {
		sc = new(miningScratch)
	}
	return sc
}

// putScratch returns a scratch borrowed with getScratch. The buffers keep
// their capacity (that is the point) but hold stale values; holders must
// not use sc afterwards.
func (o ParallelOptions) putScratch(sc *miningScratch) {
	o.Session.scratchPool().Put(sc)
}

// anyIn reports whether any item of s is set in mask. Items must be
// within the mask's width.
func anyIn(s []int, mask *bitset.Set) bool {
	for _, i := range s {
		if mask.Contains(i) {
			return true
		}
	}
	return false
}
