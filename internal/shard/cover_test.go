package shard

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"twoview/internal/core"
	"twoview/internal/dataset"
	"twoview/internal/itemset"
)

// TestCoverBackendsAgree tests the core.Cover contract directly, below
// the drivers: on paper-profile data, random candidate batches under
// random dirty masks, interleaved with applied rules, must make the
// local cover and in-process shard covers (shards ∈ {1, 2, 3} ×
// workers ∈ {1, 2}) write identical deltas — including leaving the
// entries outside the mask alone — and return identical CoverTotals
// after every Apply.
func TestCoverBackendsAgree(t *testing.T) {
	ctx := context.Background()
	for _, pr := range selectProfiles {
		d, cands := profileInput(t, pr.name, pr.scale, pr.minsup)
		local, err := core.NewCover(ctx, d, cands, core.Parallel(1))
		if err != nil {
			t.Fatal(err)
		}
		defer local.Close()
		var labels []string
		var covers []core.Cover
		for _, shards := range []int{1, 2, 3} {
			for _, workers := range []int{1, 2} {
				c := newCover(ctx, d, cands, Config{Shards: shards, Workers: workers})
				defer c.Close()
				labels = append(labels, pr.name+" "+formatCell("cover", shards, workers))
				covers = append(covers, c)
			}
		}

		r := rand.New(rand.NewSource(5))
		const rules = 8
		for step := 0; step <= rules; step++ {
			for batch := 0; batch < 3; batch++ {
				idx := randomBatch(r, len(cands))
				dirty := randomDirty(r, d)
				want := scoreInto(t, local, cands, idx, dirty)
				for i, c := range covers {
					got := scoreInto(t, c, cands, idx, dirty)
					for k := range want {
						if !slices.Equal(got[k], want[k]) {
							t.Fatalf("%s step %d: candidate %d deltas %v, local %v",
								labels[i], step, idx[k], got[k], want[k])
						}
					}
				}
			}
			if step == rules {
				break
			}
			cd := &cands[r.Intn(len(cands))]
			rule := core.Rule{X: cd.X, Dir: core.Directions[r.Intn(3)], Y: cd.Y}
			want, err := local.Apply(rule)
			if err != nil {
				t.Fatal(err)
			}
			for i, c := range covers {
				got, err := c.Apply(rule)
				if err != nil {
					t.Fatalf("%s: apply %v: %v", labels[i], rule, err)
				}
				if got.UOnes != want.UOnes || got.EOnes != want.EOnes || got.CorrLen != want.CorrLen {
					t.Fatalf("%s: totals after %v = %+v, local %+v", labels[i], rule, *got, *want)
				}
			}
		}
	}
}

// randomBatch draws up to 48 distinct candidate indices in random order.
func randomBatch(r *rand.Rand, n int) []int32 {
	idx := make([]int32, 0, 48)
	for _, i := range r.Perm(n)[:min(n, 1+r.Intn(48))] {
		idx = append(idx, int32(i))
	}
	return idx
}

// randomDirty returns nil (every item) a third of the time, else a mask
// marking each item with probability 1/2.
func randomDirty(r *rand.Rand, d *dataset.Dataset) *core.DirtyItems {
	if r.Intn(3) == 0 {
		return nil
	}
	var items [2]itemset.Itemset
	for _, v := range []dataset.View{dataset.Left, dataset.Right} {
		for it := 0; it < d.Items(v); it++ {
			if r.Intn(2) == 0 {
				items[v] = append(items[v], it)
			}
		}
	}
	return core.NewDirtyItems(d, &items)
}

// scoreInto scores the batch on c into fresh delta slices preset to a
// sentinel, so that entries a masked Score must leave alone are
// compared too.
func scoreInto(t *testing.T, c core.Cover, cands []core.Candidate, idx []int32, dirty *core.DirtyItems) [][]int32 {
	t.Helper()
	delta := make([][]int32, len(idx))
	for k, ci := range idx {
		delta[k] = make([]int32, len(cands[ci].Y)+len(cands[ci].X))
		for j := range delta[k] {
			delta[k][j] = -1 << 30
		}
	}
	if err := c.Score(context.Background(), idx, dirty, delta); err != nil {
		t.Fatalf("score: %v", err)
	}
	return delta
}
