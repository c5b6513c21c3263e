package core

import (
	"sync"

	"twoview/internal/bitset"
)

// miningScratch holds the per-call working buffers of the round-structured
// miners (both miners' qub verdicts, MineSelect's scoring cache, top
// rules and used-item masks, MineGreedy's candidate order and window
// buffers). The buffers are recycled through the Session's free list
// (or, for sessionless calls, a package-wide sync.Pool), so repeated
// mining calls in one session reach a steady state where rounds
// allocate nothing. Scratch never influences results: every buffer is
// either truncated to zero length or fully overwritten before it is
// read. What a candidate set fixes for every run over it (the tidset
// sizes the qub verdicts read, the memo layout and its counts) is not
// scratch: it lives in the candidates' candIndex.
type miningScratch struct {
	cache  selectCache // SELECT: incremental scoring state
	top    topRules    // SELECT: the round's k best rules
	usedL  bitset.Set  // SELECT: items used this round, left view
	usedR  bitset.Set  // SELECT: items used this round, right view
	qubOK  []bool      // per-candidate qub verdicts, from the index's sizes
	order  []uint64    // GREEDY: candidate order
	prefix []uint64    // GREEDY: per-candidate itemset prefixes
	idx    []int32     // GREEDY: the window's qub survivors
	delta  []int32     // GREEDY: the window's cover deltas
	views  [][]int32   // GREEDY: per-survivor slices of delta
}

// defaultScratchPool recycles scratch for callers without a Session.
var defaultScratchPool sync.Pool

// getScratch borrows a scratch from the options' session (falling back
// to the package-wide pool); return it with putScratch.
func (o ParallelOptions) getScratch() *miningScratch {
	var sc *miningScratch
	if s := o.Session; s != nil {
		s.mu.Lock()
		if n := len(s.scratch); n > 0 {
			sc, s.scratch = s.scratch[n-1], s.scratch[:n-1]
		}
		s.mu.Unlock()
	} else {
		sc, _ = defaultScratchPool.Get().(*miningScratch)
	}
	if sc == nil {
		sc = new(miningScratch)
	}
	return sc
}

// putScratch returns a scratch borrowed with getScratch. The buffers keep
// their capacity (that is the point) but hold stale values; holders must
// not use sc afterwards.
func (o ParallelOptions) putScratch(sc *miningScratch) {
	if s := o.Session; s != nil {
		s.mu.Lock()
		s.scratch = append(s.scratch, sc)
		s.mu.Unlock()
		return
	}
	defaultScratchPool.Put(sc)
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
