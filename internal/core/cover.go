package core

import (
	"context"
	"slices"

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
// mined tables are bit-identical for every backend. The local cover
// also memoizes: it counts each distinct (antecedent tidset, consequent
// item) pair once per change of the item's columns and serves every
// candidate sharing the pair from the memo (see localCover); a
// memoized delta is the integer a recount would give, so the memo
// changes no result either.
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
// worker pool through a memo of cover deltas.
//
// A direction's cover delta of consequent item y depends only on the
// antecedent's support tidset and on y's U/E columns in the target
// view. Candidates share their antecedents (MaterializeTids points
// equal X's, and equal Y's, at one set), so the cover interns the
// distinct tidsets to dense ids, keeps one cell per distinct (target
// view, tidset id, item) triple and counts each once per state change.
// A cell is valid while its stamp equals its item's State.version + 1
// (zero: never counted); State.applyDir bumps the version of every item
// whose columns it updates, so any mutation path, Apply or a direct
// State.AddRule, invalidates exactly the cells of the touched items.
// Tidsets are interned by pointer, so candidates built elsewhere with
// equal but unshared tidsets stay correct: they only do not share
// cells. A delta is an exact integer, whoever counts it and however
// often it is reused, so the tables stay bit-identical for any worker
// count.
type localCover struct {
	s       *State
	cands   []Candidate
	rt      *pool.Runtime
	workers int

	// tids lists the distinct antecedent tidsets by id, size their
	// counts.
	tids []*bitset.Set
	size []int32
	// cells holds one memo cell per distinct pair. cellOf lists, per
	// candidate from cellOff[ci], the cell of each consequent item in
	// the layout of Score: the items of Y, then those of X.
	cells   []deltaCell
	cellOf  []int32
	cellOff []int32
	// claims lists the cells the current Score counts: the stale ones
	// the batch reads, each once; counted sums them over all calls.
	claims  []int32
	counted int64
}

// deltaCell is the memo cell of one (target view, antecedent tidset,
// consequent item) triple. The delta splits as coverHits + offset (see
// State.coverHits): offset does not depend on the cover state, so it is
// counted once, at the cell's first count, and every later recount is
// one fused pass.
type deltaCell struct {
	tid    int32 // index into localCover.tids
	item   int32
	target dataset.View
	known  bool   // offset has been counted
	stamp  uint32 // the item's State.version + 1 when delta was counted
	delta  int32
	offset int32 // |t ∩ supp(y)| − |t|
}

// newLocalCover lays out the memo with one hash per candidate side, not
// per cell. Pass one interns each side's tidset by pointer, per target
// view, parks its id in the side's first cellOf entry and gives it a row
// as wide as the view in slot; pass two counts the distinct (tidset,
// item) pairs, and pass three numbers them in order of first use.
func newLocalCover(s *State, cands []Candidate, rt *pool.Runtime, workers int) *localCover {
	c := &localCover{s: s, cands: cands, rt: rt, workers: workers, cellOff: make([]int32, len(cands)+1)}
	for ci := range cands {
		c.cellOff[ci+1] = c.cellOff[ci] + int32(len(cands[ci].Y)+len(cands[ci].X))
	}
	c.cellOf = make([]int32, c.cellOff[len(cands)])
	sides := func(f func(target dataset.View, tids *bitset.Set, items itemset.Itemset, at int32)) {
		for ci := range cands {
			cd, at := &cands[ci], c.cellOff[ci]
			if len(cd.Y) > 0 {
				f(dataset.Right, cd.TidX, cd.Y, at)
			}
			if len(cd.X) > 0 {
				f(dataset.Left, cd.TidY, cd.X, at+int32(len(cd.Y)))
			}
		}
	}
	tidOf, base := [2]map[*bitset.Set]int32{{}, {}}, []int32{0}
	sides(func(target dataset.View, tids *bitset.Set, _ itemset.Itemset, at int32) {
		tid, ok := tidOf[target][tids]
		if !ok {
			tid = int32(len(c.tids))
			tidOf[target][tids] = tid
			c.tids, c.size = append(c.tids, tids), append(c.size, int32(tids.Count()))
			base = append(base, base[tid]+int32(s.d.Items(target)))
		}
		c.cellOf[at] = tid
	})
	// slot[base[tid]+item] is 0 before the pair is seen, −1 once counted
	// and the cell id + 1 once numbered.
	slot, cells := make([]int32, base[len(c.tids)]), 0
	sides(func(_ dataset.View, _ *bitset.Set, items itemset.Itemset, at int32) {
		for _, it := range items {
			if row := slot[base[c.cellOf[at]]:]; row[it] == 0 {
				row[it], cells = -1, cells+1
			}
		}
	})
	c.cells = make([]deltaCell, 0, cells)
	sides(func(target dataset.View, _ *bitset.Set, items itemset.Itemset, at int32) {
		tid := c.cellOf[at]
		row := slot[base[tid]:]
		for j, it := range items {
			if row[it] < 0 {
				row[it] = int32(len(c.cells)) + 1
				c.cells = append(c.cells, deltaCell{tid: tid, item: int32(it), target: target})
			}
			c.cellOf[at+int32(j)] = row[it] - 1
		}
	})
	return c
}

// count recounts cl against the current state. The first count also
// takes offset; at version 0 the item's U column is its support and its E
// column empty, so coverHits is |t ∩ supp(y)| too and that one pass
// gives the whole delta.
func (c *localCover) count(cl *deltaCell) {
	t, y := c.tids[cl.tid], int(cl.item)
	if !cl.known {
		inSupp := int32(bitset.AndCount(t, c.s.d.Columns(cl.target)[y]))
		cl.offset, cl.known = inSupp-c.size[cl.tid], true
		if c.s.version[cl.target][y] == 0 {
			cl.delta = inSupp + cl.offset
			return
		}
	}
	cl.delta = int32(c.s.coverHits(cl.target, t, y)) + cl.offset
}

// scoreChunk caps the cells per counting task, and scoreTasks is the
// number of tasks a smaller claim list splits into, so that a short
// GREEDY window still spreads over the workers. The chunk size depends
// only on the number of claims, never on the worker count; and since
// every task writes only its own cells, the result does not depend on
// it either.
const (
	scoreChunk = 256
	scoreTasks = 64
)

// Score runs in three steps. A serial pass over the batch claims each
// stale cell it reads (honouring dirty) and stamps it with its item's
// current version, so a cell shared by many candidates is claimed once.
// One pool phase then counts the claimed cells, each task writing only
// its own cells. Last, a serial gather copies the cells into delta.
func (c *localCover) Score(ctx context.Context, idx []int32, dirty *DirtyItems, delta [][]int32) error {
	c.claims = c.claims[:0]
	for _, ci := range idx {
		for _, id := range c.cellOf[c.cellOff[ci]:c.cellOff[ci+1]] {
			cl := &c.cells[id]
			if dirty != nil && !dirty[cl.target].Contains(int(cl.item)) {
				continue
			}
			if stamp := c.s.version[cl.target][cl.item] + 1; cl.stamp != stamp {
				cl.stamp = stamp
				c.claims = append(c.claims, id)
			}
		}
	}
	c.counted += int64(len(c.claims))
	chunk := max(1, min(scoreChunk, len(c.claims)/scoreTasks))
	err := pool.ForChunksCtxOn(c.rt, ctx, c.workers, len(c.claims), chunk, func(lo, hi int) {
		for _, id := range c.claims[lo:hi] {
			c.count(&c.cells[id])
		}
	})
	if err != nil {
		// A cancelled phase may have skipped claimed cells: invalidate
		// them all.
		for _, id := range c.claims {
			c.cells[id].stamp = 0
		}
		return err
	}
	for k, ci := range idx {
		for j, id := range c.cellOf[c.cellOff[ci]:c.cellOff[ci+1]] {
			if cl := &c.cells[id]; dirty == nil || dirty[cl.target].Contains(int(cl.item)) {
				delta[k][j] = cl.delta
			}
		}
	}
	return nil
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

// countedCells returns the number of memo cells c counted, for
// Work.Cells; zero for a cover other than the local one.
func countedCells(c Cover) int64 {
	if lc, ok := c.(*localCover); ok {
		return lc.counted
	}
	return 0
}

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

// qubVerdicts sets ok[ci], for every candidate, to whether the quick
// bound qub (State.Qub) lets it reach positive gain, and returns ok
// (grown as needed). qub reads only the coder, never the cover state,
// so a candidate's verdict holds for a whole run and the drivers filter
// the candidates once up front. Candidates share their tidsets (see
// MaterializeTids), so each distinct tidset is counted once.
func qubVerdicts(coder *mdl.Coder, cands []Candidate, ok []bool) []bool {
	supps := make(map[*bitset.Set]int)
	count := func(t *bitset.Set) int {
		n, seen := supps[t]
		if !seen {
			n = t.Count()
			supps[t] = n
		}
		return n
	}
	ok = slices.Grow(ok[:0], len(cands))[:len(cands)]
	for ci := range cands {
		cd := &cands[ci]
		ok[ci] = qub(coder, cd.X, cd.Y, count(cd.TidX), count(cd.TidY)) > GainEpsilon
	}
	return ok
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
