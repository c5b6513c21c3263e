package core

import (
	"context"
	"slices"
	"sync"
	"weak"

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
	// The totals belong to the cover and change with the next Apply;
	// the driver reports the last ones as Result.Totals. They are all a
	// caller sees of the cover state: the columns stay behind the
	// boundary and go with Close.
	Apply(r Rule) (*CoverTotals, error)
	// ScoresAhead reports whether GREEDY should score its speculation
	// window in batches ahead of the walk, rather than one candidate at
	// its turn.
	ScoresAhead() bool
	// Close releases the cover's resources.
	Close()
}

// NewCover returns the cover of d's empty table that a SELECT or GREEDY
// run over cands mines against: a local State, or the sharded engine's
// when par asks for it and the binary links internal/shard (see
// ParallelOptions.Shards). The caller closes it.
func NewCover(ctx context.Context, d *dataset.Dataset, cands []Candidate, par ParallelOptions) (Cover, error) {
	if par.Shards > 0 || len(par.ShardAddrs) > 0 {
		if shardCover == nil {
			return nil, errNoShardCover
		}
		return shardCover(ctx, d, cands, par), nil
	}
	return newLocalCover(NewState(d, mdl.NewCoder(d)), cands, par.Workers), nil
}

// localCover is the in-process Cover: a State, scored in pool phases
// through a memo of cover deltas.
//
// A direction's cover delta of consequent item y depends only on the
// antecedent's support tidset and on y's U/E columns in the target
// view. Candidates share their antecedents (MaterializeTids points
// equal X's, and equal Y's, at one set), so the memo keeps one cell per
// distinct (target view, tidset, item) triple and counts each once per
// state change. The cells, each candidate's list of them and each
// cell's |t ∩ supp(y)| do not depend on the state: they live in the
// candidates' candIndex, which every cover over them shares. The cover
// keeps only a stamp and a delta per cell. A cell is valid while its
// stamp equals its item's State.version + 1 (zero: never counted);
// State.applyDir bumps the version of every item whose columns it
// updates, so any mutation path, Apply or a direct State.AddRule,
// invalidates exactly the cells of the touched items. A delta is an
// exact integer, whoever counts it and however often it is reused, so
// the tables stay bit-identical for any worker count.
type localCover struct {
	s       *State
	cands   []Candidate
	workers int

	// ix indexes the candidates' tidsets (see indexOf) and pos[ci] is
	// candidate ci's position in it. stamp and delta hold this cover's
	// state of each of ix's cells, from the first Score on.
	ix    *candIndex
	pos   []int32
	stamp []uint32
	delta []int32
	// claims lists the cells the current Score counts: the stale ones
	// the batch reads, each once; counted sums them over all calls.
	// masked holds one bit per (candidate, item) of the batch, in its
	// order: whether the mask lets Score write the item.
	claims  []int32
	masked  []uint64
	counted int64
}

func newLocalCover(s *State, cands []Candidate, workers int) *localCover {
	ix, pos := indexOf(s.d, cands)
	return &localCover{s: s, cands: cands, workers: workers, ix: ix, pos: pos}
}

// candIndex is the state-free index of one candidate set, shared
// read-only by every cover over it, concurrent ones included.
// Positions number the candidates it was built over, and a tidset id
// names one distinct (view, tidset). The sizes come with the index
// (MaterializeTids takes them from its fill). The memo layout and each
// cell's |t ∩ supp(y)| are built by the first local cover to Score
// (build), so paths that never do, like the shard coordinator and
// cmd/shardworker, pay nothing for them.
type candIndex struct {
	// d names the dataset the index was built for without keeping it
	// alive: candidates may outlive their dataset.
	d    weak.Pointer[dataset.Dataset]
	tids []*bitset.Set // by tidset id
	size []int32       // |tids[id]|
	side []int32       // side[2p], side[2p+1]: the ids of position p's TidX and TidY
	// items returns position p's X and Y, for build.
	items func(p int) (x, y itemset.Itemset)

	mu sync.Mutex // serializes build
	// cells holds one cell per distinct (target view, tidset id, item).
	// cellOf lists, per position from cellOff[p], the cell of each
	// consequent item in the layout of Score: the items of Y, then
	// those of X. All three are nil until build.
	cells   []indexCell
	cellOf  []int32
	cellOff []int32
}

// indexCell is one (target view, antecedent tidset, consequent item)
// triple and its inSupp = |t ∩ supp(y)|. The cover delta is coverHits +
// inSupp − |t| (see State.coverHits). At the item's version 0 its U
// column is its support and its E column empty, so coverHits is inSupp
// too and the delta 2·inSupp − |t|, with no count at all.
type indexCell struct {
	tid, item, inSupp int32
	target            uint8 // a dataset.View
}

// indexOf returns the index a cover over cands on d reads, with each
// candidate's position in it: the one MaterializeTids attached if it
// was built for d and still holds every candidate's TidX and TidY at
// the candidate's position, as any subset or reordering of its
// candidates does. Otherwise it builds a private index over cands,
// interning their tidsets by pointer per view and counting each once.
func indexOf(d *dataset.Dataset, cands []Candidate) (*candIndex, []int32) {
	pos, wd := make([]int32, len(cands)), weak.Make(d)
	for i := range cands {
		cd, ix := &cands[i], cands[0].ix
		if ix == nil || ix.d != wd || cd.ix != ix || cd.TidX != ix.tids[ix.side[2*cd.pos]] || cd.TidY != ix.tids[ix.side[2*cd.pos+1]] {
			break
		}
		if pos[i] = cd.pos; i == len(cands)-1 {
			return ix, pos
		}
	}
	ix := &candIndex{d: wd, side: make([]int32, 2*len(cands))}
	ids := [2]map[*bitset.Set]int32{{}, {}}
	intern := func(v dataset.View, t *bitset.Set) int32 {
		id, ok := ids[v][t]
		if !ok {
			id = int32(len(ix.tids))
			ids[v][t] = id
			ix.tids, ix.size = append(ix.tids, t), append(ix.size, int32(t.Count()))
		}
		return id
	}
	for i := range cands {
		ix.side[2*i], ix.side[2*i+1] = intern(dataset.Left, cands[i].TidX), intern(dataset.Right, cands[i].TidY)
		pos[i] = int32(i)
	}
	ix.items = func(p int) (x, y itemset.Itemset) { return cands[p].X, cands[p].Y }
	return ix, pos
}

// build lays out the cells of every position and counts their inSupp,
// once per index; a cancelled build leaves the index unbuilt for the
// next Score to retry. The layout hashes nothing: pass one gives each
// antecedent tidset a row, as wide as its target view, in a dense slot
// table; pass two counts the distinct (tidset, item) pairs, and pass
// three numbers them in order of first use. The counts run on the pool
// in scoreChunk-sized chunks, each task writing only its own cells.
func (ix *candIndex) build(ctx context.Context, d *dataset.Dataset, workers int) error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if ix.cellOff != nil {
		return nil
	}
	n := len(ix.side) / 2
	cellOff := make([]int32, n+1)
	for p := 0; p < n; p++ {
		x, y := ix.items(p)
		cellOff[p+1] = cellOff[p] + int32(len(y)+len(x))
	}
	sides := func(f func(target dataset.View, tid int32, items itemset.Itemset, at int32)) {
		for p := 0; p < n; p++ {
			x, y := ix.items(p)
			if len(y) > 0 {
				f(dataset.Right, ix.side[2*p], y, cellOff[p])
			}
			if len(x) > 0 {
				f(dataset.Left, ix.side[2*p+1], x, cellOff[p]+int32(len(y)))
			}
		}
	}
	base, width := slices.Repeat([]int32{-1}, len(ix.tids)), int32(0)
	sides(func(target dataset.View, tid int32, _ itemset.Itemset, _ int32) {
		if base[tid] < 0 {
			base[tid], width = width, width+int32(d.Items(target))
		}
	})
	// slot[base[tid]+item] is 0 before the pair is seen, −1 once counted
	// and the cell id + 1 once numbered.
	slot, count := make([]int32, width), 0
	sides(func(_ dataset.View, tid int32, items itemset.Itemset, _ int32) {
		for _, it := range items {
			if row := slot[base[tid]:]; row[it] == 0 {
				row[it], count = -1, count+1
			}
		}
	})
	cells, cellOf := make([]indexCell, 0, count), make([]int32, cellOff[n])
	sides(func(target dataset.View, tid int32, items itemset.Itemset, at int32) {
		row := slot[base[tid]:]
		for j, it := range items {
			if row[it] < 0 {
				row[it] = int32(len(cells)) + 1
				cells = append(cells, indexCell{tid: tid, item: int32(it), target: uint8(target)})
			}
			cellOf[at+int32(j)] = row[it] - 1
		}
	})
	cols := [2][]*bitset.Set{d.Columns(dataset.Left), d.Columns(dataset.Right)}
	err := pool.ForChunksCtx(ctx, workers, len(cells), scoreChunk, func(lo, hi int) {
		//lint:ctxprobe-ok at most scoreChunk kernel calls; ForChunksCtx probes ctx between chunks
		for k := range cells[lo:hi] {
			cl := &cells[lo+k]
			cl.inSupp = int32(bitset.AndCount(ix.tids[cl.tid], cols[cl.target][cl.item]))
		}
	})
	if err == nil {
		ix.cells, ix.cellOf, ix.cellOff = cells, cellOf, cellOff
	}
	return err
}

// count recounts cell id against the current state.
func (c *localCover) count(id int32) {
	cl := &c.ix.cells[id]
	c.delta[id] = cl.inSupp - c.ix.size[cl.tid]
	if c.s.version[cl.target][cl.item] == 0 {
		c.delta[id] += cl.inSupp
	} else {
		c.delta[id] += int32(c.s.coverHits(dataset.View(cl.target), c.ix.tids[cl.tid], int(cl.item)))
	}
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

// Score runs in three steps. A serial pass over the batch tests each
// item against the mask, once, recording the verdict in masked, and
// claims each stale cell a masked item reads, stamping it with its
// item's current version, so a cell shared by many candidates is
// claimed once. One pool phase then counts the claimed cells, each task
// writing only its own cells. Last, a serial gather copies the masked
// items' cells into delta.
func (c *localCover) Score(ctx context.Context, idx []int32, dirty *DirtyItems, delta [][]int32) error {
	ix := c.ix
	if c.stamp == nil {
		if err := ix.build(ctx, c.s.d, c.workers); err != nil {
			return err
		}
		c.stamp, c.delta = make([]uint32, len(ix.cells)), make([]int32, len(ix.cells))
	}
	c.claims, c.masked = c.claims[:0], c.masked[:0]
	r := uint(0)
	for _, ci := range idx {
		p := c.pos[ci]
		for _, id := range ix.cellOf[ix.cellOff[p]:ix.cellOff[p+1]] {
			if r%64 == 0 {
				c.masked = append(c.masked, 0)
			}
			if cl := &ix.cells[id]; dirty == nil || dirty[cl.target].Contains(int(cl.item)) {
				c.masked[r/64] |= 1 << (r % 64)
				if stamp := c.s.version[cl.target][cl.item] + 1; c.stamp[id] != stamp {
					c.stamp[id] = stamp
					c.claims = append(c.claims, id)
				}
			}
			r++
		}
	}
	c.counted += int64(len(c.claims))
	chunk := max(1, min(scoreChunk, len(c.claims)/scoreTasks))
	err := pool.ForChunksCtx(ctx, c.workers, len(c.claims), chunk, func(lo, hi int) {
		for _, id := range c.claims[lo:hi] {
			c.count(id)
		}
	})
	if err != nil {
		// A cancelled phase may have skipped claimed cells: invalidate
		// them all.
		for _, id := range c.claims {
			c.stamp[id] = 0
		}
		return err
	}
	r = uint(0)
	for k, ci := range idx {
		p := c.pos[ci]
		for j, id := range ix.cellOf[ix.cellOff[p]:ix.cellOff[p+1]] {
			if c.masked[r/64]&(1<<(r%64)) != 0 {
				delta[k][j] = c.delta[id]
			}
			r++
		}
	}
	return nil
}

func (c *localCover) Apply(r Rule) (*CoverTotals, error) {
	c.s.AddRule(r)
	return c.s.totals, nil
}

// ScoresAhead is true only with more than one worker. At one worker
// the lazy walk is not always the faster one: it wins where rules are
// accepted often and loses where they are rare (see greedy.go).
func (c *localCover) ScoresAhead() bool { return pool.Size(c.workers, len(c.cands)) > 1 }

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
// bound qub lets it reach positive gain, and returns ok
// (grown as needed). qub reads only the coder, never the cover state,
// so a candidate's verdict holds for a whole run and the drivers filter
// the candidates once up front. The tidset sizes come from the index of
// the cover c, the local cover's own or indexOf's for any other.
func qubVerdicts(coder *mdl.Coder, c Cover, d *dataset.Dataset, cands []Candidate, ok []bool) []bool {
	var ix *candIndex
	var pos []int32
	if lc, local := c.(*localCover); local {
		ix, pos = lc.ix, lc.pos
	} else {
		ix, pos = indexOf(d, cands)
	}
	ok = slices.Grow(ok[:0], len(cands))[:len(cands)]
	for ci := range cands {
		cd, p := &cands[ci], pos[ci]
		ok[ci] = qub(coder, cd.X, cd.Y, int(ix.size[ix.side[2*p]]), int(ix.size[ix.side[2*p+1]])) > GainEpsilon
	}
	return ok
}

// qub returns the quick upper bound qub(X ◇ Y) of §5.2, valid for all
// three directions of the rule: |supp(X)|·L(Y|D_R) + |supp(Y)|·L(X|D_L)
// − L(X↔Y). It reads only the coder, so it cannot prune subtrees but
// safely skips exact gain computations.
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
