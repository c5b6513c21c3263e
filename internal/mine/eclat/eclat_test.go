package eclat

import (
	"context"
	"errors"
	"math/rand"
	"sort"
	"sync/atomic"
	"testing"
	"testing/quick"

	"twoview/internal/dataset"
	"twoview/internal/itemset"
)

// small builds a 2+2-item dataset whose lattice is easy to verify by hand.
func small(t *testing.T) *dataset.Dataset {
	t.Helper()
	d := dataset.MustNew([]string{"a", "b"}, []string{"p", "q"})
	rows := [][2][]int{
		{{0, 1}, {0}},    // a b | p
		{{0, 1}, {0, 1}}, // a b | p q
		{{0}, {0}},       // a   | p
		{{1}, {1}},       //   b |   q
	}
	for _, r := range rows {
		if err := d.AddRow(r[0], r[1]); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

func TestMineFrequentAll(t *testing.T) {
	d := small(t)
	fis, err := Mine(context.Background(), d, Options{MinSupport: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{ // joined ids: a=0 b=1 p=2 q=3
		"{0}":       3,
		"{1}":       3,
		"{2}":       3,
		"{3}":       2,
		"{0 1}":     2,
		"{0 2}":     3,
		"{0 3}":     1,
		"{1 2}":     2,
		"{1 3}":     2,
		"{2 3}":     1,
		"{0 1 2}":   2,
		"{0 1 3}":   1,
		"{0 2 3}":   1,
		"{1 2 3}":   1,
		"{0 1 2 3}": 1,
	}
	if len(fis) != len(want) {
		t.Fatalf("got %d itemsets, want %d", len(fis), len(want))
	}
	for _, fi := range fis {
		if want[fi.Items.String()] != fi.Supp {
			t.Errorf("%v: supp=%d, want %d", fi.Items, fi.Supp, want[fi.Items.String()])
		}
	}
}

func TestMineMinSupport(t *testing.T) {
	d := small(t)
	fis, err := Mine(context.Background(), d, Options{MinSupport: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, fi := range fis {
		if fi.Supp < 2 {
			t.Errorf("%v has supp %d < 2", fi.Items, fi.Supp)
		}
	}
	// {0} {1} {2} {3} {0 1} {0 2} {1 2} {1 3} {0 1 2}
	if len(fis) != 9 {
		t.Fatalf("got %d itemsets with minsup 2, want 9", len(fis))
	}
}

func TestMineTwoViewFilter(t *testing.T) {
	d := small(t)
	fis, err := Mine(context.Background(), d, Options{MinSupport: 1, TwoView: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, fi := range fis {
		x, y := Split(fi.Items, d.Items(dataset.Left))
		if x.Empty() || y.Empty() {
			t.Errorf("%v is not a two-view itemset", fi.Items)
		}
	}
	// All 15 minus the 3 pure-left ({0},{1},{0 1}) and 3 pure-right.
	if len(fis) != 9 {
		t.Fatalf("got %d two-view itemsets, want 9", len(fis))
	}
}

func TestMineClosedSmall(t *testing.T) {
	d := small(t)
	fis, err := Mine(context.Background(), d, Options{MinSupport: 1, Closed: true})
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]int{}
	for _, fi := range fis {
		if _, dup := got[fi.Items.String()]; dup {
			t.Fatalf("duplicate closed itemset %v", fi.Items)
		}
		got[fi.Items.String()] = fi.Supp
	}
	want := bruteForceClosed(d, 1)
	if len(got) != len(want) {
		t.Fatalf("closed sets: got %v want %v", got, want)
	}
	for k, s := range want {
		if got[k] != s {
			t.Errorf("closed %s: supp %d, want %d", k, got[k], s)
		}
	}
}

func TestMaxItems(t *testing.T) {
	d := small(t)
	fis, err := Mine(context.Background(), d, Options{MinSupport: 1, MaxItems: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, fi := range fis {
		if len(fi.Items) > 2 {
			t.Errorf("%v exceeds MaxItems", fi.Items)
		}
	}
	if len(fis) != 10 {
		t.Fatalf("got %d itemsets, want 10", len(fis))
	}
}

func TestMaxResults(t *testing.T) {
	d := small(t)
	if _, err := Mine(context.Background(), d, Options{MinSupport: 1, MaxResults: 3}); err == nil {
		t.Fatal("expected explosion error")
	}
}

func TestSplit(t *testing.T) {
	x, y := Split(itemset.New(0, 2, 5), 3)
	if !x.Equal(itemset.New(0, 2)) || !y.Equal(itemset.New(2)) {
		t.Fatalf("Split = %v / %v", x, y)
	}
	x, y = Split(nil, 3)
	if x != nil || y != nil {
		t.Fatal("Split(nil) should be nil/nil")
	}
}

// The parallel walk must return the exact same itemsets, supports and
// tidsets, in the same order, for every worker count and option mix.
func TestMineParallelDeterminism(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 10; trial++ {
		d := randomDataset(r)
		for _, opt := range []Options{
			{MinSupport: 1},
			{MinSupport: 2, Closed: true},
			{MinSupport: 1, Closed: true, TwoView: true},
			{MinSupport: 1, MaxItems: 3},
		} {
			opt.Workers = 1
			serial, err := Mine(context.Background(), d, opt)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, 4, 7} {
				opt.Workers = workers
				par, err := Mine(context.Background(), d, opt)
				if err != nil {
					t.Fatal(err)
				}
				if len(par) != len(serial) {
					t.Fatalf("trial %d workers=%d opts=%+v: %d itemsets, serial %d",
						trial, workers, opt, len(par), len(serial))
				}
				for i := range serial {
					if !par[i].Items.Equal(serial[i].Items) || par[i].Supp != serial[i].Supp {
						t.Fatalf("trial %d workers=%d: itemset %d differs", trial, workers, i)
					}
				}
			}
		}
	}
}

// The MaxResults overflow must trip for every worker count (the emission
// counter is global, so success/failure is schedule-independent).
func TestMaxResultsParallel(t *testing.T) {
	d := small(t)
	for _, workers := range []int{1, 2, 4, 7} {
		if _, err := Mine(context.Background(), d, Options{MinSupport: 1, MaxResults: 3, Workers: workers}); err == nil {
			t.Fatalf("workers=%d: expected explosion error", workers)
		}
		// A cap the output fits under must never trip.
		fis, err := Mine(context.Background(), d, Options{MinSupport: 1, MaxResults: 100, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(fis) != 15 {
			t.Fatalf("workers=%d: %d itemsets, want 15", workers, len(fis))
		}
	}
}

func TestSortOrderDeterministic(t *testing.T) {
	d := small(t)
	a, _ := Mine(context.Background(), d, Options{MinSupport: 1})
	b, _ := Mine(context.Background(), d, Options{MinSupport: 1})
	for i := range a {
		if !a[i].Items.Equal(b[i].Items) {
			t.Fatal("mining is not deterministic")
		}
	}
	for i := 1; i < len(a); i++ {
		if a[i].Supp > a[i-1].Supp {
			t.Fatal("output not sorted by support desc")
		}
	}
}

// --- brute-force references ---

// enumerate all subsets of the joined alphabet (small m), returning
// support by itemset string.
func bruteForceFrequent(d *dataset.Dataset, minsup int) map[string]int {
	nL, nR := d.Items(dataset.Left), d.Items(dataset.Right)
	m := nL + nR
	out := map[string]int{}
	for mask := 1; mask < 1<<m; mask++ {
		var is itemset.Itemset
		for i := 0; i < m; i++ {
			if mask&(1<<i) != 0 {
				is = append(is, i)
			}
		}
		supp := jointSupport(d, is, nL)
		if supp >= minsup {
			out[is.String()] = supp
		}
	}
	return out
}

func jointSupport(d *dataset.Dataset, is itemset.Itemset, nL int) int {
	x, y := Split(is, nL)
	return d.JointSupportSet(x, y).Count()
}

func bruteForceClosed(d *dataset.Dataset, minsup int) map[string]int {
	freq := bruteForceFrequent(d, minsup)
	type entry struct {
		is   itemset.Itemset
		supp int
	}
	var all []entry
	for k, s := range freq {
		all = append(all, entry{parseSet(k), s})
	}
	out := map[string]int{}
	for _, e := range all {
		closed := true
		for _, o := range all {
			if o.supp == e.supp && len(o.is) > len(e.is) && e.is.SubsetOf(o.is) {
				closed = false
				break
			}
		}
		if closed {
			out[e.is.String()] = e.supp
		}
	}
	return out
}

func parseSet(s string) itemset.Itemset {
	var out itemset.Itemset
	num := -1
	for _, r := range s {
		switch {
		case r >= '0' && r <= '9':
			if num < 0 {
				num = 0
			}
			num = num*10 + int(r-'0')
		default:
			if num >= 0 {
				out = append(out, num)
				num = -1
			}
		}
	}
	sort.Ints(out)
	return out
}

func randomDataset(r *rand.Rand) *dataset.Dataset {
	nL, nR := 1+r.Intn(4), 1+r.Intn(4)
	d := dataset.MustNew(dataset.GenericNames("l", nL), dataset.GenericNames("r", nR))
	n := 1 + r.Intn(25)
	for i := 0; i < n; i++ {
		var left, right []int
		for j := 0; j < nL; j++ {
			if r.Intn(2) == 0 {
				left = append(left, j)
			}
		}
		for j := 0; j < nR; j++ {
			if r.Intn(2) == 0 {
				right = append(right, j)
			}
		}
		d.AddRow(left, right)
	}
	return d
}

func TestQuickFrequentMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := randomDataset(r)
		minsup := 1 + r.Intn(3)
		fis, err := Mine(context.Background(), d, Options{MinSupport: minsup})
		if err != nil {
			return false
		}
		want := bruteForceFrequent(d, minsup)
		if len(fis) != len(want) {
			return false
		}
		for _, fi := range fis {
			if want[fi.Items.String()] != fi.Supp {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickClosedMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := randomDataset(r)
		minsup := 1 + r.Intn(3)
		fis, err := Mine(context.Background(), d, Options{MinSupport: minsup, Closed: true})
		if err != nil {
			return false
		}
		want := bruteForceClosed(d, minsup)
		seen := map[string]bool{}
		for _, fi := range fis {
			key := fi.Items.String()
			if seen[key] {
				return false // duplicate emission
			}
			seen[key] = true
			if want[key] != fi.Supp {
				return false
			}
		}
		return len(seen) == len(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// countdownCtx is a context whose Err flips to Canceled after limit
// calls. The walk only consults Err.
type countdownCtx struct {
	context.Context
	probes atomic.Int64
	limit  int64
}

func (c *countdownCtx) Err() error {
	if c.probes.Add(1) > c.limit {
		return context.Canceled
	}
	return c.Context.Err()
}

// The walk must observe a cancellation inside a top-level branch. The
// pool probes the context once per branch and once at the end, so a
// countdown of branches+1 calls lets all of those probes pass: only the
// walk's own probe, made every 1,024 intersections, can trip it. Over 16
// items at 90% density every itemset is frequent, so the first branch
// alone makes 2^15 − 1 intersections, one per itemset it extends to,
// and at one worker the countdown trips there, at the 17,408th.
func TestCancelInsideBranch(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	const items = 8
	d := dataset.MustNew(dataset.GenericNames("l", items), dataset.GenericNames("r", items))
	for i := 0; i < 64; i++ {
		var left, right []int
		for j := 0; j < items; j++ {
			if r.Float64() < 0.9 {
				left = append(left, j)
			}
			if r.Float64() < 0.9 {
				right = append(right, j)
			}
		}
		if err := d.AddRow(left, right); err != nil {
			t.Fatal(err)
		}
	}
	for _, workers := range []int{1, 4} {
		ctx := &countdownCtx{Context: context.Background(), limit: 2*items + 1}
		_, err := Mine(ctx, d, Options{MinSupport: 1, Workers: workers})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
	}
}
