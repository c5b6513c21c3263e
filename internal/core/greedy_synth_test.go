package core_test

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"twoview/internal/core"
	"twoview/internal/synth"
)

// GREEDY's packed-key order equals the plain comparator over the
// candidates (length descending, then support descending, then
// Rule.Compare of (X, Y)) on every Table-2 profile at scale 0.2, with
// the candidates shuffled first.
func TestGreedyOrderMatchesComparator(t *testing.T) {
	ctx := context.Background()
	r := rand.New(rand.NewSource(32))
	ties := 0
	for _, p := range synth.Profiles() {
		p = p.Scaled(0.2)
		d, _, err := synth.Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		cands, _, err := core.MineCandidatesCapped(ctx, d, max(p.MinSupport, 1), 20_000, core.Parallel(0))
		if err != nil {
			t.Fatal(err)
		}
		r.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
		want := make([]int, len(cands))
		for i := range want {
			want[i] = i
		}
		slices.SortFunc(want, func(a, b int) int {
			ca, cb := &cands[a], &cands[b]
			if la, lb := len(ca.X)+len(ca.Y), len(cb.X)+len(cb.Y); la != lb {
				return lb - la
			}
			if ca.Supp != cb.Supp {
				return cb.Supp - ca.Supp
			}
			return core.Rule{X: ca.X, Y: ca.Y}.Compare(core.Rule{X: cb.X, Y: cb.Y})
		})
		if got := core.GreedyOrder(d, cands); !slices.Equal(got, want) {
			t.Fatalf("%s: %d candidates in another order than the comparator's", p.Name, len(cands))
		}
		for i := 1; i < len(want); i++ {
			a, b := &cands[want[i-1]], &cands[want[i]]
			if len(a.X)+len(a.Y) == len(b.X)+len(b.Y) && a.Supp == b.Supp {
				ties++
			}
		}
	}
	if ties == 0 {
		t.Fatal("no two candidates share a length and a support: the itemset order was never used")
	}
	t.Logf("%d neighbours share a length and a support", ties)
}
