package core_test

import (
	"context"
	"testing"
	"time"

	"twoview/internal/bitset"
	"twoview/internal/core"
	"twoview/internal/dataset"
	"twoview/internal/synth"
)

// synthDataset generates a paper profile at the given scale.
func synthDataset(t testing.TB, profile string, scale float64) *dataset.Dataset {
	t.Helper()
	p, err := synth.ProfileByName(profile)
	if err != nil {
		t.Fatal(err)
	}
	d, _, err := synth.Generate(p.Scaled(scale))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// synthCandidates mines the candidates of a paper profile at the given
// scale and minimum support.
func synthCandidates(t testing.TB, profile string, scale float64, minsup, workers int) (*dataset.Dataset, []core.Candidate) {
	t.Helper()
	d := synthDataset(t, profile, scale)
	cands, err := core.MineCandidates(context.Background(), d, minsup, 0, core.Parallel(workers))
	if err != nil {
		t.Fatal(err)
	}
	return d, cands
}

// BenchmarkNewCover builds the empty-table cover SELECT and GREEDY mine
// against, at the paper's scale and one worker: the coder, the State and
// the cover, with the index of its candidates. The cold case builds the
// index's memo layout and counts its cells, as the first cover over a
// candidate set does; the warm case finds them built, as every later
// cover does. It runs on adult's candidates at its Table-1 minimum
// support (48,842 transactions, 280 candidates), on chesskrvk's at
// minimum support 64 (28,056 transactions, 16,693 candidates, 12,364
// memo cells) and on the two profiles with the widest views: crime
// (244+294 items, 7,651 candidates) at minimum support 800, where its
// Table-1 support of 200 settles under the experiments'
// 200,000-candidate cap, and elections (82+867 items, 31,067
// candidates, 12,099 distinct right-hand tidsets) at its Table-1
// support. It lives here, not in bench_test.go, because internal/synth
// imports core, so only the external test package can generate a
// profile.
func BenchmarkNewCover(b *testing.B) {
	for _, bench := range []struct {
		profile string
		minsup  int
	}{
		{"adult", 4885},
		{"chesskrvk", 64},
		{"crime", 800},
		{"elections", 47},
	} {
		d, cands := synthCandidates(b, bench.profile, 1.0, bench.minsup, 1)
		for _, cold := range []bool{true, false} {
			name := bench.profile + "/warm"
			if cold {
				name = bench.profile + "/cold"
			}
			b.Run(name, func(b *testing.B) {
				ctx := context.Background()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if cold {
						core.DropIndexLayout(cands)
					}
					c, err := core.NewCover(ctx, d, cands, core.Parallel(1))
					if err != nil {
						b.Fatal(err)
					}
					if err := core.BuildCoverIndex(ctx, c); err != nil {
						b.Fatal(err)
					}
					c.Close()
				}
			})
		}
	}
}

// BenchmarkPipelineSynth runs the mining pipelines of perfbench's
// mine-dense and serve workloads without their harness, at scale 1.0,
// one worker and one Session: MineCandidates, then SELECT(1), then
// GREEDY over the same candidates. chesskrvk mines at minimum support
// 64 with SELECT capped at 24 rules (mine-dense), adult at its Table-1
// minimum support 4885 with SELECT run to its natural stop (serve). It
// reports each stage's mean wall time per pipeline as cand_ms,
// select_ms and greedy_ms.
func BenchmarkPipelineSynth(b *testing.B) {
	for _, bench := range []struct {
		profile     string
		minsup      int
		selectRules int
	}{
		{"chesskrvk", 64, 24},
		{"adult", 4885, 0},
	} {
		b.Run(bench.profile, func(b *testing.B) {
			d := synthDataset(b, bench.profile, 1.0)
			sess := core.NewSession()
			defer sess.Close()
			ctx, par := context.Background(), core.ParallelOptions{Workers: 1, Session: sess}
			var stages [3]time.Duration
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				start := time.Now()
				cands, err := core.MineCandidates(ctx, d, bench.minsup, 0, par)
				if err != nil {
					b.Fatal(err)
				}
				mined := time.Now()
				if _, err := core.MineSelect(ctx, d, cands, core.SelectOptions{K: 1, MaxRules: bench.selectRules, ParallelOptions: par}); err != nil {
					b.Fatal(err)
				}
				selected := time.Now()
				if _, err := core.MineGreedy(ctx, d, cands, core.GreedyOptions{ParallelOptions: par}); err != nil {
					b.Fatal(err)
				}
				stages[0] += mined.Sub(start)
				stages[1] += selected.Sub(mined)
				stages[2] += time.Since(selected)
			}
			for k, unit := range []string{"cand_ms", "select_ms", "greedy_ms"} {
				b.ReportMetric(float64(stages[k].Microseconds())/1e3/float64(b.N), unit)
			}
		})
	}
}

// The local cover counts each distinct (antecedent, item) pair of a
// paper profile's candidates once, and after a rule only the pairs of
// the items the rule touched.
func TestCoverMemoCountsDistinctPairsOnce(t *testing.T) {
	d, cands := synthCandidates(t, "tictactoe", 0.5, 10, 0)
	core.CheckMemoSavesWork(t, d, cands)
}

// sharing checks that two candidates' tidsets on one side are the same
// pointer exactly when their itemsets there (keys) are equal, and
// returns, per candidate, the first candidate sharing its tidset.
func sharing(t *testing.T, side string, keys []string, tids []*bitset.Set) []int {
	t.Helper()
	byKey, byPtr := map[string]int{}, map[*bitset.Set]int{}
	first := make([]int, len(keys))
	for i, k := range keys {
		a, okA := byKey[k]
		b, okB := byPtr[tids[i]]
		if okA != okB || a != b {
			t.Fatalf("candidate %d: %s %s: equal itemset seen %v (at %d), same tidset seen %v (at %d)", i, side, k, okA, a, okB, b)
		}
		if !okA {
			a = i
			byKey[k], byPtr[tids[i]] = i, i
		}
		first[i] = a
	}
	return first
}

// MineCandidates shares tidsets exactly among equal itemsets: equal X's
// have the same TidX pointer and unequal ones different pointers (Y and
// TidY alike), every set is its itemset's support, and the candidates,
// sharing included, are the same at 1 and 4 workers.
func TestMineCandidatesSharesTidsets(t *testing.T) {
	d, serial := synthCandidates(t, "tictactoe", 0.5, 10, 1)
	_, par := synthCandidates(t, "tictactoe", 0.5, 10, 4)
	if len(par) != len(serial) {
		t.Fatalf("%d candidates at 4 workers, %d at 1", len(par), len(serial))
	}
	pattern := func(cands []core.Candidate) (firstX, firstY []int) {
		var xs, ys []string
		var tx, ty []*bitset.Set
		for i := range cands {
			cd := &cands[i]
			if !cd.TidX.Equal(d.SupportSet(dataset.Left, cd.X)) || !cd.TidY.Equal(d.SupportSet(dataset.Right, cd.Y)) {
				t.Fatalf("candidate %d: a tidset is not its itemset's support", i)
			}
			xs, ys = append(xs, cd.X.String()), append(ys, cd.Y.String())
			tx, ty = append(tx, cd.TidX), append(ty, cd.TidY)
		}
		return sharing(t, "X", xs, tx), sharing(t, "Y", ys, ty)
	}
	sx, sy := pattern(serial)
	px, py := pattern(par)
	shared := 0
	for i := range serial {
		if !par[i].X.Equal(serial[i].X) || !par[i].Y.Equal(serial[i].Y) || par[i].Supp != serial[i].Supp ||
			!par[i].TidX.Equal(serial[i].TidX) || !par[i].TidY.Equal(serial[i].TidY) {
			t.Fatalf("candidate %d differs between 1 and 4 workers", i)
		}
		if sx[i] != px[i] || sy[i] != py[i] {
			t.Fatalf("candidate %d shares differently at 1 and 4 workers", i)
		}
		if sx[i] != i {
			shared++
		}
	}
	if shared == 0 {
		t.Fatal("no two candidates share an X: the test proves nothing")
	}
}

// BenchmarkMineCandidatesSynth mines the candidates of two paper
// profiles at scale 1.0 and one worker: chesskrvk at minimum support 64,
// whose large top-level ECLAT branches pay for walking over their own
// rows, and adult at its Table-1 minimum support, where every branch
// declines to.
func BenchmarkMineCandidatesSynth(b *testing.B) {
	for _, bench := range []struct {
		profile string
		minsup  int
	}{
		{"chesskrvk", 64},
		{"adult", 4885},
	} {
		b.Run(bench.profile, func(b *testing.B) {
			d := synthDataset(b, bench.profile, 1.0)
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.MineCandidates(ctx, d, bench.minsup, 0, core.Parallel(1)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
