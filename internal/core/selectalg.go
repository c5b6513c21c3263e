package core

import (
	"context"
	"slices"
	"sort"

	"twoview/internal/bitset"
	"twoview/internal/dataset"
	"twoview/internal/itemset"
	"twoview/internal/mdl"
	"twoview/internal/pool"
)

// This file implements TRANSLATOR-SELECT(k) (Algorithm 3): in each round,
// score every rule constructible from the candidate set (three directions
// per candidate itemset), take the k rules with the highest gain, and add
// them one by one, discarding rules whose itemsets overlap the items used
// by a rule already added in the same round. Rounds repeat until no rule
// improves compression.
//
// Scoring is incremental (selectCache). The quick bound qub is
// state-free, so the candidates it admits are the same every round and
// are filtered once per run. For each admitted candidate the cache keeps
// both rule lengths and, per rule direction and consequent item, the
// integer gainDir weighs by the item's length (State.coverDelta). Adding
// a rule changes the U and E columns only at the consequent items of the
// directions it applies, so a round recounts only the (candidate, item)
// pairs whose item the previous round touched (every pair in the first
// round), then folds the cached integers in consequent order with
// gainDir's arithmetic (State.foldGain). The scored gains are therefore
// bit-identical to evaluating every rule from scratch, which
// selectalg_test.go checks in every round.
//
// The Line-8 re-check (the rule must still improve compression against
// the current table) reuses the scored gain. That is exact, not a
// heuristic. A rule is only added if its X and Y are disjoint from every
// item already used in this round, and the rules added earlier in the
// round changed U and E only at items of their own X and Y. A rule that
// passes the overlap filter therefore reads exactly the round-start
// state at its turn in the walk. Its gain against that state, composed
// direction by direction as (0 + a) + b − c, equals the scored a + b − c
// bit for bit. Scored rules all have gain above gainEpsilon, so the
// re-check never rejects a rule that passes the filter.
//
// Scoring runs on the internal/pool worker pool in fixed 256-candidate
// chunks, and each chunk writes only its own candidates' cache slots, so
// the result is identical for every worker count.

// SelectOptions configures MineSelect.
type SelectOptions struct {
	// K is the number of rules selected per round; the paper evaluates
	// k=1 and k=25. Values < 1 mean 1.
	K int
	// MaxRules stops after this many rules in total; 0 means no limit.
	MaxRules int
	// Trace observes each added rule.
	Trace TraceFunc
	// OnIteration observes each added rule and may stop the run early by
	// returning false (the partial table is returned with a nil error).
	OnIteration IterationFunc
	// ParallelOptions sets the worker-pool size for per-round scoring;
	// results are identical for any value.
	ParallelOptions
}

// ScoredRule is a rule SELECT considers in a round, with its gain
// against the round-start table.
type ScoredRule struct {
	Rule Rule
	Gain float64
}

// Before is the order in which SELECT ranks scored rules: gain
// descending, ties broken by Rule.Compare. It is total over distinct
// rules.
func (a ScoredRule) Before(b ScoredRule) bool {
	if a.Gain != b.Gain {
		return a.Gain > b.Gain
	}
	return a.Rule.Compare(b.Rule) < 0
}

// MineSelect runs TRANSLATOR-SELECT(k) over the given candidates.
//
// Cancelling ctx aborts the run at the next checkpoint (a round
// boundary or a chunk boundary inside the scoring phase) and returns
// the table mined so far alongside ctx.Err(). With an uncancelled
// context the result is bit-identical for every worker count and the
// error is nil.
func MineSelect(ctx context.Context, d *dataset.Dataset, cands []Candidate, opt SelectOptions) (*Result, error) {
	if m, err := shardEngine(opt.ParallelOptions); err != nil {
		return nil, err
	} else if m != nil {
		return m.MineSelect(ctx, d, cands, opt)
	}
	elapsed := stopwatch()
	if opt.K < 1 {
		opt.K = 1
	}
	coder := mdl.NewCoder(d)
	s := NewState(d, coder)
	res := &Result{State: s}

	// All rounds submit their phases to one persistent runtime (the
	// workers park between rounds instead of being relaunched) and reuse
	// one set of session-pooled buffers: the scoring cache, the
	// scored-rule slice and the per-round used-item masks all reach a
	// steady state where rounds allocate nothing.
	rt := opt.runtime()
	sc := opt.getScratch()
	cache := &sc.cache
	cache.reset(s, cands)
	scored := sc.scored[:0]
	usedL, usedR := &sc.usedL, &sc.usedR
	var err error
	stopped := false
	for !stopped {
		if err = ctx.Err(); err != nil {
			break
		}
		if opt.MaxRules > 0 && len(s.table.Rules) >= opt.MaxRules {
			break
		}
		// Line 3: select the k rules with the highest Δ_{D,T} among all
		// rules constructible from the candidates.
		if scored, err = cache.score(ctx, rt, s, cands, scored[:0], opt.Workers); err != nil {
			break
		}
		top := TopK(scored, opt.K)
		if len(top) == 0 {
			break
		}

		// Lines 5-10: add the selected rules, skipping rules whose
		// itemsets overlap items already used in this round (their gain
		// has changed and they may no longer belong to the top-k). The
		// used items are tracked as per-view bitmasks, reset (not
		// reallocated) each round. The first selected rule is always
		// added, so every round makes progress.
		usedL.Reset(d.Items(dataset.Left))
		usedR.Reset(d.Items(dataset.Right))
		for _, sr := range top {
			if opt.MaxRules > 0 && len(s.table.Rules) >= opt.MaxRules {
				break
			}
			if anyIn(sr.Rule.X, usedL) || anyIn(sr.Rule.Y, usedR) {
				continue
			}
			// Line 8: sr.Gain is the rule's gain against the current
			// table (see the file comment).
			s.AddRule(sr.Rule)
			cache.dirty.Touch(sr.Rule)
			if !res.record(s, sr.Rule, sr.Gain, opt.Trace, opt.OnIteration) {
				stopped = true
				break // OnIteration asked for an early stop
			}
			for _, it := range sr.Rule.X {
				usedL.Add(it)
			}
			for _, it := range sr.Rule.Y {
				usedR.Add(it)
			}
		}
	}
	sc.scored = scored // hand the grown capacity back to the pool
	opt.putScratch(sc)
	res.Table = s.Table()
	res.Runtime = elapsed()
	return res, err
}

// TopK reorders scored so that its first min(k, len(scored)) entries are
// the k best rules in SELECT's order (ScoredRule.Before), and returns
// that prefix: sort-then-truncate without sorting the rest. The prefix
// is kept sorted, and a later rule is inserted only if it ranks before
// the current k-th. k must be at least 1.
func TopK(scored []ScoredRule, k int) []ScoredRule {
	m := 0 // scored[:m] holds the best rules seen so far, in order
	for i := range scored {
		sr := scored[i]
		if m == k {
			if !sr.Before(scored[k-1]) {
				continue
			}
			scored[i] = scored[k-1] // evicted; slot i is never visited again
		} else {
			scored[i] = scored[m]
			m++
		}
		// Insert sr into the hole at m-1, keeping scored[:m] sorted.
		j := sort.Search(m-1, func(j int) bool { return sr.Before(scored[j]) })
		copy(scored[j+1:m], scored[j:m-1])
		scored[j] = sr
	}
	return scored[:m]
}

// scoreChunk is the fixed candidate-chunk size of the scoring pass. It
// bounds the scheduling granularity; because it never depends on the
// worker count, neither does the work any cache slot sees.
const scoreChunk = 256

// selectCache is MineSelect's incremental scoring state (see the file
// comment). It lives in miningScratch, so a session's repeated runs
// reuse its storage; reset prepares it for a run.
type selectCache struct {
	slots []selectSlot
	// delta holds, per slot, the cached State.coverDelta of each
	// consequent item: the items of Y (the X→Y direction, target view
	// Right), then those of X (X←Y, target view Left).
	delta []int32
	// dirty marks, per target view, the items whose U/E columns changed
	// since the cached deltas were counted.
	dirty DirtyItems
}

// selectSlot is the cache entry of one candidate that passed the qub
// filter.
type selectSlot struct {
	cand          int     // index into the candidates
	off           int     // start of the candidate's deltas in selectCache.delta
	lenUni, lenBi float64 // L(X→Y) = L(X←Y), and L(X↔Y)
	gainF, gainB  float64 // Δ_{D|T} of the X→Y and X←Y directions
}

// reset prepares the cache for a run over cands against the empty-table
// state s: it applies the state-free qub filter, caches the rule lengths
// of the candidates that pass, and marks every item dirty.
func (c *selectCache) reset(s *State, cands []Candidate) {
	c.slots = c.slots[:0]
	n := 0
	for ci := range cands {
		cd := &cands[ci]
		// qub bounds all three directions; a candidate that cannot reach
		// positive gain is never evaluated.
		if s.Qub(cd.X, cd.Y, cd.TidX.Count(), cd.TidY.Count()) <= gainEpsilon {
			continue
		}
		c.slots = append(c.slots, selectSlot{
			cand:   ci,
			off:    n,
			lenUni: s.coder.RuleLen(cd.X, cd.Y, false),
			lenBi:  s.coder.RuleLen(cd.X, cd.Y, true),
		})
		n += len(cd.Y) + len(cd.X)
	}
	c.delta = slices.Grow(c.delta[:0], n)[:n]
	c.dirty.Fill(s.d)
}

// score brings the cache up to date with s and appends every rule with
// gain above gainEpsilon to dst: in candidate order, and per candidate in
// the order →, ←, ↔, exactly what scoring every candidate from scratch
// appends. It leaves no item dirty; dirty.Touch marks the items that
// adding a rule changes.
func (c *selectCache) score(ctx context.Context, rt *pool.Runtime, s *State, cands []Candidate, dst []ScoredRule, workers int) ([]ScoredRule, error) {
	if err := pool.ForChunksCtxOn(rt, ctx, workers, len(c.slots), scoreChunk, func(lo, hi int) {
		c.refresh(s, cands, lo, hi)
	}); err != nil {
		return dst, err
	}
	c.dirty.Clear()
	for i := range c.slots {
		sl := &c.slots[i]
		cd := &cands[sl.cand]
		gains := [3]float64{sl.gainF - sl.lenUni, sl.gainB - sl.lenUni, sl.gainF + sl.gainB - sl.lenBi}
		for dir, g := range gains {
			if g > gainEpsilon {
				dst = append(dst, ScoredRule{Rule{X: cd.X, Dir: Directions[dir], Y: cd.Y}, g})
			}
		}
	}
	return dst, nil
}

// refresh recounts the dirty (candidate, item) pairs of slots [lo, hi)
// and refolds the gain of every direction that had one. It only reads
// the state and the dirty masks and only writes its own slots, so
// disjoint ranges may run concurrently.
func (c *selectCache) refresh(s *State, cands []Candidate, lo, hi int) {
	for i := lo; i < hi; i++ {
		sl := &c.slots[i]
		cd := &cands[sl.cand]
		fwd := c.delta[sl.off : sl.off+len(cd.Y)]
		back := c.delta[sl.off+len(cd.Y) : sl.off+len(cd.Y)+len(cd.X)]
		if c.recount(s, dataset.Right, cd.TidX, cd.Y, fwd) {
			sl.gainF = s.foldGain(dataset.Right, cd.Y, fwd)
		}
		if c.recount(s, dataset.Left, cd.TidY, cd.X, back) {
			sl.gainB = s.foldGain(dataset.Left, cd.X, back)
		}
	}
}

// recount refreshes the cached delta of each dirty item of cons, for the
// rule direction with antecedent support tids and consequent cons in the
// target view, and reports whether it refreshed any.
func (c *selectCache) recount(s *State, target dataset.View, tids *bitset.Set, cons itemset.Itemset, delta []int32) bool {
	dirty := &c.dirty[target]
	stale := false
	//lint:ctxprobe-ok bounded per-rule work (|cons| kernel calls); score probes ctx at chunk granularity
	for j, y := range cons {
		if dirty.Contains(y) {
			delta[j] = int32(s.coverDelta(target, tids, y))
			stale = true
		}
	}
	return stale
}

// DirtyItems marks, per target view (indexed by dataset.View), the
// consequent items whose U/E columns changed since a cached count of
// them was taken. It is the dirty set of SELECT's incremental scoring
// in both engines (selectCache here, the coordinator's cache in
// internal/shard) and the item filter of a masked
// PartialState.ScoreRule.
type DirtyItems [2]bitset.Set

// NewDirtyItems returns the mask of the given per-view item lists over
// d's alphabets, or nil (every item) when items is nil. Items must be
// within the alphabets.
func NewDirtyItems(d *dataset.Dataset, items *[2]itemset.Itemset) *DirtyItems {
	if items == nil {
		return nil
	}
	di := new(DirtyItems)
	for _, v := range [2]dataset.View{dataset.Left, dataset.Right} {
		di[v].Reset(d.Items(v))
		for _, it := range items[v] {
			di[v].Add(it)
		}
	}
	return di
}

// Fill sizes the masks to d's alphabets and marks every item dirty.
func (di *DirtyItems) Fill(d *dataset.Dataset) {
	for _, v := range [2]dataset.View{dataset.Left, dataset.Right} {
		di[v].Reset(d.Items(v))
		di[v].Fill()
	}
}

// Clear marks every item clean.
func (di *DirtyItems) Clear() {
	di[dataset.Left].Clear()
	di[dataset.Right].Clear()
}

// Items returns the dirty items of each view as freshly allocated
// ascending lists.
func (di *DirtyItems) Items() [2]itemset.Itemset {
	return [2]itemset.Itemset{di[dataset.Left].Indices(), di[dataset.Right].Indices()}
}

// Touch marks the items whose U/E columns adding r changes: the
// consequent items of each direction r applies in.
func (di *DirtyItems) Touch(r Rule) {
	if r.AppliesTo(dataset.Left) {
		for _, y := range r.Y {
			di[dataset.Right].Add(y)
		}
	}
	if r.AppliesTo(dataset.Right) {
		for _, x := range r.X {
			di[dataset.Left].Add(x)
		}
	}
}
