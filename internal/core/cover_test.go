package core

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"twoview/internal/bitset"
	"twoview/internal/dataset"
	"twoview/internal/itemset"
	"twoview/internal/mdl"
)

// coverDeltas is the reference counter of Cover.Score: it writes
// coverDelta of each item of cons into dst (dst[j] for cons[j]), for the
// rule direction with antecedent support tids and the target view's
// consequent cons; with dirty non-nil only for the items it marks.
func (s *State) coverDeltas(target dataset.View, tids *bitset.Set, cons itemset.Itemset, dirty *DirtyItems, dst []int32) {
	for j, y := range cons {
		if dirty == nil || dirty[target].Contains(y) {
			dst[j] = int32(s.coverDelta(target, tids, y))
		}
	}
}

// randomItemset returns a random non-empty itemset over n items.
func randomItemset(r *rand.Rand, n int) itemset.Itemset {
	s := itemset.New(r.Intn(n))
	for r.Intn(2) == 0 {
		s = s.Union(itemset.New(r.Intn(n)))
	}
	return s
}

// randomSharedCandidates draws candidates from a few distinct X's and
// Y's. Each candidate points its TidX (TidY) either at the set shared by
// every candidate with that X (Y) or at a fresh, equal but unshared one,
// so the memo's cells are shared by some candidates and not by others.
func randomSharedCandidates(r *rand.Rand, d *dataset.Dataset) []Candidate {
	xs := make([]itemset.Itemset, 1+r.Intn(5))
	ys := make([]itemset.Itemset, 1+r.Intn(5))
	var sharedX, sharedY []*bitset.Set
	for i := range xs {
		xs[i] = randomItemset(r, d.Items(dataset.Left))
		sharedX = append(sharedX, d.SupportSet(dataset.Left, xs[i]))
	}
	for i := range ys {
		ys[i] = randomItemset(r, d.Items(dataset.Right))
		sharedY = append(sharedY, d.SupportSet(dataset.Right, ys[i]))
	}
	cands := make([]Candidate, 5+r.Intn(30))
	for ci := range cands {
		i, j := r.Intn(len(xs)), r.Intn(len(ys))
		cd := Candidate{X: xs[i], Y: ys[j], TidX: sharedX[i], TidY: sharedY[j]}
		if r.Intn(3) == 0 {
			cd.TidX = d.SupportSet(dataset.Left, xs[i])
		}
		if r.Intn(3) == 0 {
			cd.TidY = d.SupportSet(dataset.Right, ys[j])
		}
		cd.Supp = bitset.AndCount(cd.TidX, cd.TidY)
		cands[ci] = cd
	}
	return cands
}

// emptyMask returns a DirtyItems over d's alphabets marking no item.
func emptyMask(d *dataset.Dataset) *DirtyItems {
	di := new(DirtyItems)
	for _, v := range [2]dataset.View{dataset.Left, dataset.Right} {
		di[v].Reset(d.Items(v))
	}
	return di
}

// randomMask returns a DirtyItems marking a random subset of d's items.
func randomMask(r *rand.Rand, d *dataset.Dataset) *DirtyItems {
	di := emptyMask(d)
	for _, v := range [2]dataset.View{dataset.Left, dataset.Right} {
		for i := 0; i < d.Items(v); i++ {
			if r.Intn(2) == 0 {
				di[v].Add(i)
			}
		}
	}
	return di
}

// refCellLayout is the memo layout of the map-keyed construction
// newLocalCover replaced, kept as its specification: per candidate, Y's
// items then X's, the cells numbered in order of first use, one per
// distinct (target view, antecedent tidset pointer, item).
func refCellLayout(cands []Candidate) (cellOf []int32, cells []indexCell, tids []*bitset.Set) {
	tidOf := map[*bitset.Set]int32{}
	ids := map[uint64]int32{}
	cell := func(target dataset.View, t *bitset.Set, item int) {
		tid, ok := tidOf[t]
		if !ok {
			tid = int32(len(tids))
			tidOf[t] = tid
			tids = append(tids, t)
		}
		k := uint64(tid)<<33 | uint64(item)<<1 | uint64(target)
		id, ok := ids[k]
		if !ok {
			id = int32(len(cells))
			ids[k] = id
			cells = append(cells, indexCell{tid: tid, item: int32(item), target: uint8(target)})
		}
		cellOf = append(cellOf, id)
	}
	for ci := range cands {
		for _, y := range cands[ci].Y {
			cell(dataset.Right, cands[ci].TidX, y)
		}
		for _, x := range cands[ci].X {
			cell(dataset.Left, cands[ci].TidY, x)
		}
	}
	return cellOf, cells, tids
}

// A cover's index must lay out the same cells, in the same order, as
// the map-keyed construction, for candidates mixing shared and unshared
// tidsets, with sides that have no items and with one set serving as
// both a TidX and a TidY; and each cell's inSupp and each tidset's size
// must be their counts.
func TestLocalCoverLayout(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for trial := 0; trial < 40; trial++ {
		d := dataset.MustNew(dataset.GenericNames("l", 3+r.Intn(6)), dataset.GenericNames("r", 3+r.Intn(6)))
		for i, n := 0, 10+r.Intn(100); i < n; i++ {
			d.AddRow(randomItemset(r, d.Items(dataset.Left)), randomItemset(r, d.Items(dataset.Right)))
		}
		cands := randomSharedCandidates(r, d)
		cands[0].X = nil
		if len(cands) > 2 {
			cands[1].TidY = cands[2].TidX
		}
		ix := newLocalCover(NewState(d, mdl.NewCoder(d)), cands, 1).ix
		if err := ix.build(context.Background(), d, 1); err != nil {
			t.Fatal(err)
		}
		cellOf, cells, tids := refCellLayout(cands)
		if !slices.Equal(ix.cellOf, cellOf) || len(ix.cells) != len(cells) {
			t.Fatalf("trial %d: %d cells, cellOf %v; want %d cells, cellOf %v", trial, len(ix.cells), ix.cellOf, len(cells), cellOf)
		}
		for id, cl := range ix.cells {
			want := cells[id]
			tids := tids[want.tid]
			if cl.item != want.item || cl.target != want.target || ix.tids[cl.tid] != tids {
				t.Fatalf("trial %d: cell %d is %+v, want %+v", trial, id, cl, want)
			}
			if int(ix.size[cl.tid]) != tids.Count() {
				t.Fatalf("trial %d: tidset %d has size %d, want %d", trial, cl.tid, ix.size[cl.tid], tids.Count())
			}
			if n := bitset.AndCount(tids, d.Columns(dataset.View(cl.target))[cl.item]); int(cl.inSupp) != n {
				t.Fatalf("trial %d: cell %d has inSupp %d, want %d", trial, id, cl.inSupp, n)
			}
		}
	}
}

// The memoized local cover against a fresh count: on random data and
// random candidates mixing shared and unshared tidsets, while random
// rules go in through Cover.Apply and directly through State.AddRule,
// every Score of a random batch, at 1, 2 and 4 workers, masked and
// unmasked, and after a cancelled Score of the same batch, writes
// exactly State.coverDeltas' integers and leaves the masked-out entries
// alone.
func TestCoverMemoMatchesFreshCounts(t *testing.T) {
	const untouched = -1 << 30
	ctx := context.Background()
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	r := rand.New(rand.NewSource(17))
	for trial := 0; trial < 40; trial++ {
		d := dataset.MustNew(dataset.GenericNames("l", 3+r.Intn(6)), dataset.GenericNames("r", 3+r.Intn(6)))
		for i, n := 0, 10+r.Intn(200); i < n; i++ {
			d.AddRow(randomItemset(r, d.Items(dataset.Left)), randomItemset(r, d.Items(dataset.Right)))
		}
		cands := randomSharedCandidates(r, d)
		s := NewState(d, mdl.NewCoder(d))
		workers := []int{1, 2, 4}
		covers := make([]*localCover, len(workers))
		for i, w := range workers {
			covers[i] = newLocalCover(s, cands, w)
		}
		for step := 0; step < 8; step++ {
			for i, w := range workers {
				for _, masked := range []bool{false, true} {
					var dirty *DirtyItems
					if masked {
						dirty = randomMask(r, d)
					}
					idx := make([]int32, 0, len(cands))
					for _, ci := range r.Perm(len(cands)) {
						if r.Intn(3) > 0 {
							idx = append(idx, int32(ci))
						}
					}
					got := make([][]int32, len(idx))
					want := make([][]int32, len(idx))
					for k, ci := range idx {
						cd := &cands[ci]
						got[k] = make([]int32, len(cd.Y)+len(cd.X))
						want[k] = make([]int32, len(cd.Y)+len(cd.X))
						for j := range got[k] {
							got[k][j], want[k][j] = untouched, untouched
						}
						s.coverDeltas(dataset.Right, cd.TidX, cd.Y, dirty, want[k])
						s.coverDeltas(dataset.Left, cd.TidY, cd.X, dirty, want[k][len(cd.Y):])
					}
					if r.Intn(4) == 0 {
						// A cancelled Score counts nothing and must
						// leave no cell claimed.
						if err := covers[i].Score(cancelled, idx, dirty, got); err != context.Canceled {
							t.Fatalf("cancelled Score returned %v", err)
						}
					}
					if err := covers[i].Score(ctx, idx, dirty, got); err != nil {
						t.Fatal(err)
					}
					for k := range idx {
						if !slices.Equal(got[k], want[k]) {
							t.Fatalf("trial %d step %d workers %d masked %v: candidate %d deltas %v, fresh count %v",
								trial, step, w, masked, idx[k], got[k], want[k])
						}
					}
				}
			}
			cd := &cands[r.Intn(len(cands))]
			rule := Rule{X: cd.X, Dir: Direction(r.Intn(3)), Y: cd.Y}
			if r.Intn(2) == 0 {
				if _, err := covers[r.Intn(len(covers))].Apply(rule); err != nil {
					t.Fatal(err)
				}
			} else {
				s.AddRule(rule)
			}
		}
	}
}

// pairKey names a (target view, antecedent, consequent item) triple by
// content.
func pairKey(target dataset.View, ante itemset.Itemset, item int) string {
	return fmt.Sprint(target, ante, item)
}

// checkMemoSavesWork checks, on cands as MineCandidates returns them,
// that the local cover counts each distinct (antecedent, item) pair once
// and, after a rule, recounts only the pairs of the items the rule
// touched. It reads the cover's own claim list.
func checkMemoSavesWork(t testing.TB, d *dataset.Dataset, cands []Candidate) {
	t.Helper()
	ctx := context.Background()
	cv := newLocalCover(NewState(d, mdl.NewCoder(d)), cands, 2)
	idx := make([]int32, len(cands))
	delta := make([][]int32, len(cands))
	distinct := map[string]bool{}
	total := 0
	for ci := range cands {
		cd := &cands[ci]
		idx[ci] = int32(ci)
		delta[ci] = make([]int32, len(cd.Y)+len(cd.X))
		for _, y := range cd.Y {
			distinct[pairKey(dataset.Right, cd.X, y)] = true
		}
		for _, x := range cd.X {
			distinct[pairKey(dataset.Left, cd.Y, x)] = true
		}
		total += len(cd.Y) + len(cd.X)
	}
	if len(distinct) >= total {
		t.Fatalf("%d distinct pairs among %d: no candidates share a pair", len(distinct), total)
	}
	// score scores every candidate and returns the number of distinct
	// cells it claimed.
	score := func() int {
		t.Helper()
		if err := cv.Score(ctx, idx, nil, delta); err != nil {
			t.Fatal(err)
		}
		seen := map[int32]bool{}
		for _, id := range cv.claims {
			seen[id] = true
		}
		if len(seen) != len(cv.claims) {
			t.Fatalf("%d claims name %d distinct cells", len(cv.claims), len(seen))
		}
		return len(seen)
	}
	if got := score(); got != len(distinct) {
		t.Fatalf("first Score counted %d cells, want the %d distinct (antecedent, item) pairs of %d", got, len(distinct), total)
	}

	cd := &cands[0]
	r := Rule{X: cd.X, Dir: Both, Y: cd.Y}
	if _, err := cv.Apply(r); err != nil {
		t.Fatal(err)
	}
	touched := emptyMask(d)
	touched.Touch(r)
	want := 0
	for ci := range cands {
		cd := &cands[ci]
		for _, y := range cd.Y {
			if k := pairKey(dataset.Right, cd.X, y); touched[dataset.Right].Contains(y) && distinct[k] {
				distinct[k] = false
				want++
			}
		}
		for _, x := range cd.X {
			if k := pairKey(dataset.Left, cd.Y, x); touched[dataset.Left].Contains(x) && distinct[k] {
				distinct[k] = false
				want++
			}
		}
	}
	if got := score(); got != want {
		t.Fatalf("Score after %v recounted %d cells, want the %d pairs of the items it touched", r, got, want)
	}
	for _, id := range cv.claims {
		if cl := &cv.ix.cells[id]; !touched[cl.target].Contains(int(cl.item)) {
			t.Fatalf("Score after %v recounted item %d of view %v, which the rule did not touch", r, cl.item, cl.target)
		}
	}
	if got := score(); got != 0 {
		t.Fatalf("a Score with no state change recounted %d cells", got)
	}
}
