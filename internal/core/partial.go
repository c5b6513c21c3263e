package core

import (
	"twoview/internal/bitset"
	"twoview/internal/dataset"
	"twoview/internal/itemset"
	"twoview/internal/mdl"
)

// This file is the state side of the sharded SELECT/GREEDY cover
// (internal/shard): PartialState is the columnar cover state restricted
// to one item-range partition, and ItemCount/CoverTotals are the pieces
// a coordinator needs to reassemble the monolith's exact float
// arithmetic from the partitions' integer summaries (State itself keeps
// its scalars in a CoverTotals).
//
// The split of responsibilities is what makes sharding bit-identical:
//
//   - a partition performs only *integer* work — popcounts over its own
//     ucol/ecol columns (State's own per-item column code, over the
//     partition's ranges) — and ships per-item (covered, errors) pairs;
//   - the coordinator performs all *float* accumulation, in exactly the
//     order gainDir/applyDir would (consequent-item order, with the
//     same skip guard): the SELECT and GREEDY drivers through foldGain
//     over Cover.Score's deltas, and the scalars through CoverTotals.
//
// Integer counts are schedule- and failure-independent, so the merged
// floats are too: any shard count, any worker count, and any recovery
// history produce the same bits as the monolithic State.

// ItemCount is the unit of the sharded gain protocol: for one rule
// direction and one consequent item, the number of transactions where
// the item becomes covered and where it becomes a new error. A slice of
// ItemCounts in consequent-item order is the entire message a shard
// sends per scored rule direction.
type ItemCount struct {
	Item    int32
	Covered int32
	Errors  int32
}

// DirCounts carries the per-item counts of both directions of one rule:
// Fwd for the X→Y direction (target view Right, items of Y) and Back
// for X←Y (target view Left, items of X). A direction the rule does not
// apply to is nil.
type DirCounts struct {
	Fwd  []ItemCount
	Back []ItemCount
}

// PartialState is the columnar cover state of one item-range partition:
// State's U/E columns, but only for target-view items in [lo, hi) per
// view, and none of the scalars (those live with the coordinator; see
// CoverTotals). It is the private, message-isolated state a mining
// shard owns.
//
// A PartialState is a pure function of (dataset, ranges, rule log):
// rebuilding one with NewPartialState + Replay after a shard crash
// yields bit-identical columns, which is the recovery story of the
// shard supervisor.
type PartialState struct {
	columns
	// tids is Apply's serial antecedent-support scratch. ScoreDir never
	// touches it, so concurrent ScoreDir calls are safe.
	tids *bitset.Set
}

// NewPartialState returns the partition [loL, hiL) × [loR, hiR) of the
// empty-table cover state: exactly the owned slice of NewState's
// columns.
func NewPartialState(d *dataset.Dataset, loL, hiL, loR, hiR int) *PartialState {
	return &PartialState{columns: newColumns(d, loL, hiL, loR, hiR), tids: bitset.New(d.Size())}
}

// owns reports whether item y of the target view is in the partition.
func (ps *PartialState) owns(target dataset.View, y int) bool {
	return y >= ps.lo[target] && y < ps.hi[target]
}

// ScoreDir computes the per-item counts of one rule direction for the
// consequent items this partition owns and dirty marks (nil marks
// every item): per such item y of cons, State's countItem integers.
// Items outside the partition are someone else's; items inside are
// emitted even at (0, 0), so a coordinator can place every requested
// item's counts and walk cons exactly once (a wire transport may
// compress the zero entries; see internal/wire).
//
// ScoreDir only reads the partition, so any number of concurrent
// ScoreDir calls (a shard's worker pool scoring a candidate batch) are
// safe against each other.
func (ps *PartialState) ScoreDir(target dataset.View, tids *bitset.Set, cons itemset.Itemset, dirty *bitset.Set) []ItemCount {
	var dst []ItemCount
	//lint:ctxprobe-ok bounded per-rule work (|cons| kernel calls); shard drivers probe ctx at message granularity
	for _, y := range cons {
		if ps.owns(target, y) && (dirty == nil || dirty.Contains(y)) {
			covered, errs := ps.countItem(target, tids, y)
			dst = append(dst, ItemCount{Item: int32(y), Covered: int32(covered), Errors: int32(errs)})
		}
	}
	return dst
}

// ScoreRule scores both directions of the rule skeleton (x, y) against
// the partition, given the support tidsets of x and y. dirty restricts
// each direction to the consequent items it marks in the target view;
// nil scores every owned item. The returned DirCounts always carries
// both directions: the coordinator composes →/←/↔ gains from the same
// two count vectors, like the SELECT scorer does from cached deltas.
func (ps *PartialState) ScoreRule(x, y itemset.Itemset, tidX, tidY *bitset.Set, dirty *DirtyItems) DirCounts {
	var dirtyL, dirtyR *bitset.Set
	if dirty != nil {
		dirtyL, dirtyR = &dirty[dataset.Left], &dirty[dataset.Right]
	}
	return DirCounts{
		Fwd:  ps.ScoreDir(dataset.Right, tidX, y, dirtyR),
		Back: ps.ScoreDir(dataset.Left, tidY, x, dirtyL),
	}
}

// Apply adds rule r to the partition — the owned slice of
// State.applyDir's column updates — and returns the per-item counts of
// both applied directions (appending to fwd/back), from which a
// coordinator updates its scalar mirrors (CoverTotals.Apply). Like
// applyDir it must never run concurrently with itself or ScoreDir on
// the same partition; a shard applies between scoring phases.
func (ps *PartialState) Apply(r Rule, fwd, back []ItemCount) DirCounts {
	if r.AppliesTo(dataset.Left) {
		ps.d.SupportSetInto(ps.tids, dataset.Left, r.X)
		fwd = ps.applyDir(dataset.Right, r.Y, fwd)
	}
	if r.AppliesTo(dataset.Right) {
		ps.d.SupportSetInto(ps.tids, dataset.Right, r.Y)
		back = ps.applyDir(dataset.Left, r.X, back)
	}
	return DirCounts{Fwd: fwd, Back: back}
}

// applyDir applies the direction whose antecedent support is in
// ps.tids to the owned consequent items, recording their counts.
func (ps *PartialState) applyDir(target dataset.View, cons itemset.Itemset, dst []ItemCount) []ItemCount {
	//lint:ctxprobe-ok bounded per-rule work (|cons| kernel calls); shards apply between message checkpoints
	for _, y := range cons {
		if ps.owns(target, y) {
			covered, errs := ps.applyItem(target, ps.tids, y)
			dst = append(dst, ItemCount{Item: int32(y), Covered: int32(covered), Errors: int32(errs)})
		}
	}
	return dst
}

// Replay rebuilds the partition's cover columns from an accepted-rule
// log by applying every rule in order, discarding the counts (the
// coordinator already accounted for them when the rules were accepted).
// NewPartialState + Replay is the deterministic recovery path of the
// shard supervisor: the resulting columns are bit-identical to those of
// a partition that lived through the run, because the columns are a
// pure function of (dataset, ranges, log). onRule, if non-nil, observes
// each rule before it is applied (the supervisor threads a fault point
// through it).
func (ps *PartialState) Replay(log []Rule, onRule func(i int, r Rule)) {
	for i, r := range log {
		if onRule != nil {
			onRule(i, r)
		}
		ps.Apply(r, nil, nil)
	}
}

// CoverTotals holds the scalar summaries of a cover state: |U| and |E|
// per target view, each item's |E_y|, and the correction lengths
// L(C|T). A State keeps one
// and updates it from its own counts; on the coordinator side of a
// sharded run one is fed by the per-item counts of the shards' Apply
// replies. Both make the same updates in the same order (applyItem),
// so a sharded run reports the same IterationStats as the monolith.
type CoverTotals struct {
	coder *mdl.Coder

	UOnes   [2]int
	EOnes   [2]int
	CorrLen [2]float64
	// itemErrs[v][y] is |E_y|, the errors of item y in target view v:
	// the growth SELECT's bound reads (see selectCache).
	itemErrs [2][]int32
}

// NewCoverTotals returns the empty-table scalars from the item supports,
// in O(items): with no rule, U = D and E = ∅, so UOnes is Σ supp(i) and
// CorrLen is the view's baseline length Σ supp(i)·L(i) (mdl.DataLen).
func NewCoverTotals(d *dataset.Dataset, coder *mdl.Coder) *CoverTotals {
	ct := &CoverTotals{coder: coder}
	for _, v := range []dataset.View{dataset.Left, dataset.Right} {
		ct.UOnes[v] = d.Ones(v)
		ct.CorrLen[v] = coder.DataLen(d, v)
		ct.itemErrs[v] = make([]int32, d.Items(v))
	}
	return ct
}

// ApplyDir folds the per-item counts of one applied rule direction into
// the scalars with applyItem, item by item in consequent order, as
// State.applyDir does. parts are the partitions' slices in partition
// order, concatenating to the full consequent walk.
func (ct *CoverTotals) ApplyDir(target dataset.View, parts ...[]ItemCount) {
	for _, part := range parts {
		for _, c := range part {
			ct.applyItem(target, int(c.Item), int(c.Covered), int(c.Errors))
		}
	}
}

// applyItem folds one applied consequent item's counts into the
// scalars: the covered transactions leave U, the new errors enter E
// and E_item, and the correction length moves by
// ItemLen·(errs−covered) in a single multiply, skipped when the counts
// cancel.
func (ct *CoverTotals) applyItem(target dataset.View, item, covered, errs int) {
	ct.UOnes[target] -= covered
	ct.EOnes[target] += errs
	ct.itemErrs[target][item] += int32(errs)
	if covered != errs {
		// Same single-multiply form as gainDir, so the gain accepted for
		// a rule equals the score change exactly (negation is lossless
		// in floating point).
		ct.CorrLen[target] += ct.coder.ItemLen(target, item) * float64(errs-covered)
	}
}

// Apply folds both directions of one applied rule, in AddRule's order
// (the X→Y direction first, then X←Y). fwdParts/backParts are the
// partitions' Apply replies in partition order; a direction the rule
// does not apply to must be empty.
func (ct *CoverTotals) Apply(r Rule, fwdParts, backParts [][]ItemCount) {
	if r.AppliesTo(dataset.Left) {
		ct.ApplyDir(dataset.Right, fwdParts...)
	}
	if r.AppliesTo(dataset.Right) {
		ct.ApplyDir(dataset.Left, backParts...)
	}
}

// Score returns L(D_L↔R, T) for the given table under these totals,
// like State.Score.
func (ct *CoverTotals) Score(table *Table) float64 {
	return table.Len(ct.coder) + ct.CorrLen[dataset.Left] + ct.CorrLen[dataset.Right]
}
