package eclat

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"twoview/internal/bitset"
	"twoview/internal/dataset"
)

// projectingDataset returns a random dataset wide enough for pays to
// project some top-level branches: 512–1,535 transactions over 4–8
// items per view. Each item occurs as noise at a density drawn from
// none to dense, and 3–6 planted patterns of 2–5 items each occur
// whole in a tenth of the rows, so that closures are common: an item
// that occurs only with its patterns contains the tidset of every node
// its pattern mates' noise does not reach, also inside a projected
// branch. Rare items head the search order with many frequent kids and
// narrow tidsets, dense ones close it with wide tidsets.
func projectingDataset(r *rand.Rand) *dataset.Dataset {
	nL, nR := 4+r.Intn(5), 4+r.Intn(5)
	dens := []float64{0, 0.005, 0.02, 0.1, 0.5}
	noise := make([]float64, nL+nR)
	for i := range noise {
		noise[i] = dens[r.Intn(len(dens))]
	}
	patterns := make([][]int, 3+r.Intn(4))
	for k := range patterns {
		patterns[k] = r.Perm(nL + nR)[:2+r.Intn(4)]
	}
	d := dataset.MustNew(dataset.GenericNames("l", nL), dataset.GenericNames("r", nR))
	row := make([]bool, nL+nR)
	for t, n := 0, 512+r.Intn(1024); t < n; t++ {
		for i, p := range noise {
			row[i] = r.Float64() < p
		}
		for _, pat := range patterns {
			if r.Float64() < 0.1 {
				for _, i := range pat {
					row[i] = true
				}
			}
		}
		var left, right []int
		for i, in := range row {
			switch {
			case in && i < nL:
				left = append(left, i)
			case in:
				right = append(right, i-nL)
			}
		}
		d.AddRow(left, right)
	}
	return d
}

// branchDecisions evaluates pays at each top-level branch node that
// Mine's walk reaches under opt (MaxItems 0), from brute-force counts
// over d: the search order, the canonical test, the kids and the
// closure. It returns the decisions in search order.
func branchDecisions(d *dataset.Dataset, opt Options) (projects []bool) {
	var cols []*bitset.Set
	cols = append(cols, d.Columns(dataset.Left)...)
	cols = append(cols, d.Columns(dataset.Right)...)
	var order []int
	ones := 0
	for i, c := range cols {
		if s := c.Count(); s >= opt.MinSupport {
			order = append(order, i)
			ones += s
		}
	}
	slices.SortFunc(order, func(a, b int) int {
		if ca, cb := cols[a].Count(), cols[b].Count(); ca != cb {
			return ca - cb
		}
		return a - b
	})
	rowBits := float64(ones) / float64(d.Size())
	for k, a := range order {
		canonical := true
		for _, e := range order[:k] {
			if opt.Closed && cols[a].SubsetOf(cols[e]) {
				canonical = false
			}
		}
		if !canonical {
			continue
		}
		supp, kids := cols[a].Count(), 0
		for _, b := range order[k+1:] {
			switch c := bitset.AndCount(cols[a], cols[b]); {
			case opt.Closed && c == supp:
			case c >= opt.MinSupport:
				kids++
			}
		}
		projects = append(projects, pays(kids, k+kids, supp, d.Size(), rowBits))
	}
	return projects
}

// Projected and unprojected branches must both emit exactly the
// reference miner's FI sequence, tidsets included, for every option mix
// and worker count, on datasets where the rule both projects and
// declines branches.
func TestProjectionMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	projected, declined := 0, 0
	for trial := 0; trial < 20; trial++ {
		d := projectingDataset(r)
		for _, opt := range []Options{
			{MinSupport: 8},
			{MinSupport: 8, Closed: true},
			{MinSupport: 4, Closed: true, TwoView: true},
			{MinSupport: 4, Closed: true, TwoView: true, DropTids: true},
			{MinSupport: 8, Closed: true, MaxItems: 3},
		} {
			if opt.MaxItems == 0 {
				for _, p := range branchDecisions(d, opt) {
					if p {
						projected++
					} else {
						declined++
					}
				}
			}
			want, err := referenceMine(d, opt)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 3} {
				opt.Workers = workers
				got, err := Mine(context.Background(), d, opt)
				if err != nil {
					t.Fatalf("trial %d workers %d: %v", trial, workers, err)
				}
				sameFIs(t, got, want, "projection mix")
			}
		}
	}
	if projected == 0 || declined == 0 {
		t.Fatalf("%d branches projected and %d declined; the datasets must exercise both", projected, declined)
	}
	t.Logf("%d branches projected, %d declined", projected, declined)
}

// The walk's periodic probe must run inside a projected branch too.
// One rare item heads the search order with 16 dense kids over 4,096
// transactions, so pays projects its branch, and the branch makes
// 2^16 − 1 intersections. As in TestCancelInsideBranch, a countdown of
// branches+1 calls lets the pool's probes pass, so only the walk's own
// probe, inside the first branch at one worker, can trip it; after that
// no worker may keep walking to the next probe.
func TestCancelInsideProjectedBranch(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	const items, rows = 8, 4096
	d := dataset.MustNew(dataset.GenericNames("l", items+1), dataset.GenericNames("r", items))
	for i := 0; i < rows; i++ {
		var left, right []int
		if r.Float64() < 0.05 {
			left = append(left, items) // the rare item
		}
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
	opt := Options{MinSupport: 1, DropTids: true}
	if !branchDecisions(d, opt)[0] {
		t.Fatal("the rare item's branch does not project")
	}
	const branches = 2*items + 1
	for _, workers := range []int{1, 4} {
		ctx := &countdownCtx{Context: context.Background(), limit: branches + 1}
		opt.Workers = workers
		_, err := Mine(ctx, d, opt)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if n := ctx.probes.Load(); n > branches+1+int64(2*workers) {
			t.Fatalf("workers=%d: %d context probes after a countdown of %d", workers, n, branches+1)
		}
	}
}
