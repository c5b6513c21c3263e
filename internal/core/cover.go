package core

import (
	"context"

	"twoview/internal/bitset"
	"twoview/internal/dataset"
	"twoview/internal/itemset"
	"twoview/internal/mdl"
	"twoview/internal/pool"
)

// Cover is the cover state the SELECT and GREEDY drivers mine against:
// the U and E columns of both target views, behind a narrow,
// batch-granular boundary. There are two implementations, the local
// columnar State (localCover) and internal/shard's supervised run, and
// each driver runs unchanged against either. EXACT does not use a
// Cover: its search reads the local State directly.
//
// The boundary is integer. A Cover counts, the driver does every float
// operation: it folds the per-item deltas Score writes with foldGain, in
// consequent order, and reads the scalars Apply returns. Integer counts
// do not depend on where or in how many pieces they were taken, so the
// mined tables are bit-identical for every backend.
type Cover interface {
	// Score writes into delta[k], for candidate idx[k], the cover delta
	// (covered − errors, see State.coverDelta) of each consequent item:
	// the items of Y (the X→Y direction, target view Right), then those
	// of X (X←Y, target view Left). With dirty non-nil only the items it
	// marks are written; the other entries keep their values.
	Score(ctx context.Context, idx []int32, dirty *DirtyItems, delta [][]int32) error
	// Apply adds r to the cover and returns the updated scalar totals.
	// The totals belong to the cover and change with the next Apply.
	Apply(r Rule) (*CoverTotals, error)
	// ScoresAhead reports whether GREEDY should score its speculation
	// window in batches ahead of the walk, rather than one candidate at
	// its turn.
	ScoresAhead() bool
	// State returns the cover state of the rules applied so far.
	State() *State
	// Close releases the cover's resources.
	Close()
}

// NewCover returns the cover of d's empty table that a SELECT or GREEDY
// run over cands mines against: the sharded engine's when par asks for
// it (see ParallelOptions.Shards), a local State otherwise. The caller
// closes it.
func NewCover(ctx context.Context, d *dataset.Dataset, cands []Candidate, par ParallelOptions) (Cover, error) {
	if par.Shards > 0 || len(par.ShardAddrs) > 0 {
		if shardCover == nil {
			return nil, errNoShardCover
		}
		return shardCover(ctx, d, cands, par), nil
	}
	return newLocalCover(NewState(d, mdl.NewCoder(d)), cands, par.runtime(), par.Workers), nil
}

// localCover is the in-process Cover: a State, scored on the session's
// worker pool.
type localCover struct {
	s       *State
	cands   []Candidate
	rt      *pool.Runtime
	workers int
}

func newLocalCover(s *State, cands []Candidate, rt *pool.Runtime, workers int) *localCover {
	return &localCover{s: s, cands: cands, rt: rt, workers: workers}
}

// scoreChunk caps the candidates per scoring task, and scoreTasks is
// the number of tasks a smaller batch splits into, so that a short
// GREEDY window still spreads over the workers. The chunk size depends
// only on the batch length, never on the worker count; and since every
// candidate writes only its own deltas, the result does not depend on
// it either.
const (
	scoreChunk = 256
	scoreTasks = 64
)

// Score counts the batch on the worker pool. Each task only reads the
// state and writes its own candidates' deltas, so tasks run
// concurrently. A single candidate (the lazy GREEDY walk's window) has
// nothing to schedule and is counted inline.
func (c *localCover) Score(ctx context.Context, idx []int32, dirty *DirtyItems, delta [][]int32) error {
	if len(idx) == 1 {
		c.score(idx, dirty, delta)
		return nil
	}
	chunk := max(1, min(scoreChunk, len(idx)/scoreTasks))
	return pool.ForChunksCtxOn(c.rt, ctx, c.workers, len(idx), chunk, func(lo, hi int) {
		c.score(idx[lo:hi], dirty, delta[lo:hi])
	})
}

// score writes the deltas of the candidates idx into delta.
func (c *localCover) score(idx []int32, dirty *DirtyItems, delta [][]int32) {
	for k, ci := range idx {
		cd := &c.cands[ci]
		c.s.coverDeltas(dataset.Right, cd.TidX, cd.Y, dirty, delta[k])
		c.s.coverDeltas(dataset.Left, cd.TidY, cd.X, dirty, delta[k][len(cd.Y):])
	}
}

func (c *localCover) Apply(r Rule) (*CoverTotals, error) {
	c.s.AddRule(r)
	return c.s.totals, nil
}

// ScoresAhead is true only with more than one worker: a single worker
// scores each candidate exactly once at its turn, which strictly
// dominates scoring ahead and discarding on accept.
func (c *localCover) ScoresAhead() bool { return pool.Size(c.workers, len(c.cands)) > 1 }

func (c *localCover) State() *State { return c.s }

func (c *localCover) Close() {}

// foldGain accumulates per-item cover deltas (one per item of cons) into
// a direction's Δ_{D|T}, with gainDir's arithmetic: in consequent order,
// one multiply-add per item, skipping zero deltas. The skip is not an
// optimization: a zero-support item (ItemLen +Inf) over an empty tidset
// must contribute 0, not Inf·0 = NaN.
func foldGain(coder *mdl.Coder, target dataset.View, cons itemset.Itemset, delta []int32) float64 {
	gain := 0.0
	for j, y := range cons {
		if delta[j] != 0 {
			gain += coder.ItemLen(target, y) * float64(delta[j])
		}
	}
	return gain
}

// ruleGains returns the Δ_{D|T} of candidate cd's X→Y and X←Y
// directions from its cover deltas (the layout Cover.Score writes).
func ruleGains(coder *mdl.Coder, cd *Candidate, delta []int32) (gainF, gainB float64) {
	return foldGain(coder, dataset.Right, cd.Y, delta), foldGain(coder, dataset.Left, cd.X, delta[len(cd.Y):])
}

// qubOK reports whether the quick bound qub (State.Qub) lets cd reach
// positive gain. qub reads only the coder, never the cover state, so a
// candidate's verdict holds for a whole run and the drivers filter the
// candidates once up front.
func qubOK(coder *mdl.Coder, cd *Candidate) bool {
	return qub(coder, cd.X, cd.Y, cd.TidX.Count(), cd.TidY.Count()) > gainEpsilon
}

// qub is State.Qub, which reads only the coder.
func qub(coder *mdl.Coder, x, y itemset.Itemset, suppX, suppY int) float64 {
	return float64(suppX)*coder.SetLen(dataset.Right, y) +
		float64(suppY)*coder.SetLen(dataset.Left, x) -
		coder.RuleLen(x, y, true)
}

// pathQub is the quick upper bound of the EXACT search, which carries
// the summed item lengths L(X) and L(Y) down its search paths:
// |supp(X)|·L(Y) + |supp(Y)|·L(X) − L(X↔Y), with L(X↔Y) taken as
// L(X) + L(Y) + 1 in that order.
func pathQub(suppX, suppY int, lenX, lenY float64) float64 {
	return float64(suppX)*lenY + float64(suppY)*lenX - (lenX + lenY + 1)
}

// DirtyItems marks, per target view (indexed by dataset.View), the
// consequent items whose U/E columns changed since a cached count of
// them was taken. It is the dirty set of SELECT's incremental scoring
// (selectCache) and the item filter of Cover.Score and of a masked
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

// Count returns the number of dirty consequent items of the candidate
// (x, y): the items of y in the Right view plus those of x in the Left.
func (di *DirtyItems) Count(x, y itemset.Itemset) int {
	n := 0
	for _, it := range y {
		if di[dataset.Right].Contains(it) {
			n++
		}
	}
	for _, it := range x {
		if di[dataset.Left].Contains(it) {
			n++
		}
	}
	return n
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
