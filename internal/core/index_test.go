package core

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"weak"

	"twoview/internal/bitset"
	"twoview/internal/dataset"
	"twoview/internal/itemset"
	"twoview/internal/mdl"
)

// randomPlantedDataset plants a few random two-view associations, each
// in a random share of rows, over background noise: every planted pair
// and many of its subsets are frequent, so the candidates share sides.
func randomPlantedDataset(r *rand.Rand, nL, nR, rows int) *dataset.Dataset {
	d := dataset.MustNew(dataset.GenericNames("l", nL), dataset.GenericNames("r", nR))
	type pattern struct {
		x, y  itemset.Itemset
		share int
	}
	pats := make([]pattern, 2+r.Intn(3))
	for i := range pats {
		pats[i] = pattern{randomItemset(r, nL), randomItemset(r, nR), 2 + r.Intn(4)}
	}
	for i := 0; i < rows; i++ {
		var left, right itemset.Itemset
		for _, p := range pats {
			if r.Intn(p.share) == 0 {
				left, right = left.Union(p.x), right.Union(p.y)
			}
		}
		for j := 0; j < 2; j++ {
			left, right = left.Union(itemset.New(r.Intn(nL))), right.Union(itemset.New(r.Intn(nR)))
		}
		d.AddRow(left, right)
	}
	return d
}

// stripped copies cands without their index, as hand-built candidates.
func stripped(cands []Candidate) []Candidate {
	out := make([]Candidate, len(cands))
	for i, cd := range cands {
		out[i] = Candidate{X: cd.X, Y: cd.Y, Supp: cd.Supp, TidX: cd.TidX, TidY: cd.TidY}
	}
	return out
}

// fresh copies cands and materializes the copy's tidsets on d anew.
func fresh(t *testing.T, d *dataset.Dataset, cands []Candidate) []Candidate {
	t.Helper()
	out := stripped(cands)
	if err := MaterializeTids(context.Background(), d, out, Parallel(1)); err != nil {
		t.Fatal(err)
	}
	return out
}

// indexMiners are the runs that share one candidate set: SELECT(1),
// SELECT(25) and GREEDY, capped at indexMaxRules rules. On another
// dataset than its tidsets', SELECT need not reach its natural stop.
const indexMaxRules = 40

var indexMiners = []struct {
	name string
	run  func(d *dataset.Dataset, cands []Candidate, par ParallelOptions) (*Result, error)
}{
	{"select1", func(d *dataset.Dataset, cands []Candidate, par ParallelOptions) (*Result, error) {
		return MineSelect(context.Background(), d, cands, SelectOptions{K: 1, MaxRules: indexMaxRules, ParallelOptions: par})
	}},
	{"select25", func(d *dataset.Dataset, cands []Candidate, par ParallelOptions) (*Result, error) {
		return MineSelect(context.Background(), d, cands, SelectOptions{K: 25, MaxRules: indexMaxRules, ParallelOptions: par})
	}},
	{"greedy", func(d *dataset.Dataset, cands []Candidate, par ParallelOptions) (*Result, error) {
		return MineGreedy(context.Background(), d, cands, GreedyOptions{MaxRules: indexMaxRules, ParallelOptions: par})
	}},
}

// mineOutcome runs indexMiners[m] and renders its rules and Work.
func mineOutcome(t *testing.T, m int, d *dataset.Dataset, cands []Candidate, par ParallelOptions) string {
	res, err := indexMiners[m].run(d, cands, par)
	if err != nil {
		t.Error(err)
		return ""
	}
	return fmt.Sprintf("%v %+v", res.Table.Rules, res.Work)
}

// references returns each miner's outcome over a fresh copy of cands.
func references(t *testing.T, d *dataset.Dataset, cands []Candidate, par ParallelOptions) []string {
	want := make([]string, len(indexMiners))
	for m := range indexMiners {
		want[m] = mineOutcome(t, m, d, fresh(t, d, cands), par)
	}
	return want
}

// checkOutcomes runs every miner over cands in the given order and
// compares each with want.
func checkOutcomes(t *testing.T, what string, d *dataset.Dataset, cands []Candidate, par ParallelOptions, order []int, want []string) {
	t.Helper()
	for _, m := range order {
		if got := mineOutcome(t, m, d, cands, par); got != want[m] {
			t.Fatalf("%s, order %v: %s mined\n%s\nover a fresh copy\n%s", what, order, indexMiners[m].name, got, want[m])
		}
	}
}

// SELECT(1), SELECT(25) and GREEDY over one MineCandidates result share
// its index, in every order and concurrently, and mine exactly what they
// mine over freshly materialized copies: tables and Work. A reversed
// subset of the candidates reads the same index; candidates with one
// TidX replaced, hand-built candidates and candidates run on another
// dataset of the same size fall back to a private index and match too.
func TestSharedIndexMatchesFreshCopies(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	orders := [][]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
	for trial := 0; trial < 6; trial++ {
		nL, nR, rows := 6+r.Intn(6), 6+r.Intn(6), 150+r.Intn(150)
		d := randomPlantedDataset(r, nL, nR, rows)
		minsup := rows / 12
		par := Parallel(1 + trial%2)
		mine := func() []Candidate { return mustCandidates(t, d, minsup, 0, par) }
		want := references(t, d, mine(), par)
		for _, order := range orders {
			cands := mine()
			checkOutcomes(t, "shared", d, cands, par, order, want)
			if cands[0].ix.cellOff == nil {
				t.Fatal("no cover built the shared index")
			}
		}

		cands := mine()
		got := make([]string, 2*len(indexMiners))
		var wg sync.WaitGroup
		for k := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[k] = mineOutcome(t, k%len(indexMiners), d, cands, par)
			}()
		}
		wg.Wait()
		for k, g := range got {
			if m := k % len(indexMiners); g != want[m] {
				t.Fatalf("concurrent %s mined\n%s\nover a fresh copy\n%s", indexMiners[m].name, g, want[m])
			}
		}

		// A reversed subset reads the shared index.
		var sub []Candidate
		for i := len(cands) - 1; i >= 0; i -= 2 {
			sub = append(sub, cands[i])
		}
		if ix, pos := indexOf(d, sub); ix != cands[0].ix || pos[0] != int32(len(cands)-1) {
			t.Fatal("a reversed subset does not read its candidates' index")
		}
		checkOutcomes(t, "reversed subset", d, sub, par, orders[trial], references(t, d, sub, par))

		// Every other case falls back to a private index: one TidX
		// replaced by the support of another candidate's X, hand-built
		// candidates, and another dataset of the same size.
		replaced := mine()
		for i := range replaced {
			if !replaced[i].X.Equal(replaced[0].X) {
				replaced[0].TidX = bitset.New(d.Size())
				replaced[0].TidX.Copy(replaced[i].TidX)
				break
			}
		}
		other := randomPlantedDataset(r, nL, nR, rows)
		for _, fb := range []struct {
			what  string
			d     *dataset.Dataset
			cands []Candidate
		}{
			{"replaced TidX", d, replaced},
			{"hand-built", d, stripped(mine())},
			{"another dataset", other, mine()},
		} {
			if ix, _ := indexOf(fb.d, fb.cands); ix == fb.cands[0].ix {
				t.Fatalf("%s: the cover reads the candidates' index", fb.what)
			}
			want := make([]string, len(indexMiners))
			for m := range indexMiners {
				want[m] = mineOutcome(t, m, fb.d, stripped(fb.cands), par)
			}
			checkOutcomes(t, fb.what, fb.d, fb.cands, par, orders[trial], want)
		}
		// The fallback cases leave the shared index as it was: a fresh
		// miner over the original candidates still matches.
		checkOutcomes(t, "shared after fallbacks", d, cands, par, []int{0, 1, 2}, want)
	}
}

// A cancelled first Score leaves the shared index unbuilt, and the next
// cover builds it and scores exactly.
func TestCancelledIndexBuildRetries(t *testing.T) {
	r := rand.New(rand.NewSource(37))
	d := randomPlantedDataset(r, 8, 8, 200)
	par := Parallel(2)
	cands := mustCandidates(t, d, 15, 0, par)
	want := references(t, d, cands, par)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cv := newLocalCover(NewState(d, mdl.NewCoder(d)), cands, 2)
	delta := [][]int32{make([]int32, len(cands[0].Y)+len(cands[0].X))}
	if err := cv.Score(ctx, []int32{0}, nil, delta); err != context.Canceled {
		t.Fatalf("cancelled Score returned %v", err)
	}
	if cands[0].ix.cellOff != nil {
		t.Fatal("a cancelled build left the index built")
	}
	checkOutcomes(t, "after a cancelled build", d, cands, par, []int{0, 1, 2}, want)
}

// Candidates and their index do not keep the dataset they were mined
// from alive: a caller that holds on to candidates of many datasets in
// turn must not hold the datasets too.
func TestIndexDoesNotKeepItsDataset(t *testing.T) {
	d := randomPlantedDataset(rand.New(rand.NewSource(41)), 8, 8, 200)
	cands := mustCandidates(t, d, 15, 0, Parallel(1))
	mustSelect(t, d, cands, SelectOptions{K: 1, ParallelOptions: Parallel(1)})
	if cands[0].ix.cellOff == nil {
		t.Fatal("SELECT did not build the index")
	}
	wd := weak.Make(d)
	d = nil
	runtime.GC()
	if wd.Value() != nil {
		t.Fatal("the candidates keep their dataset alive")
	}
	runtime.KeepAlive(cands)
}
