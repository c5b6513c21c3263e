package core_test

import (
	"context"
	"testing"
	"time"

	"twoview/internal/core"
	"twoview/internal/synth"
)

// The SELECT scoring cache against the uncached scorer on paper-profile
// data: a narrow profile (15-word tidsets) and one wider than 128 words.
func TestSelectCacheMatchesUncachedScoringOnProfiles(t *testing.T) {
	for _, tc := range []struct {
		profile  string
		scale    float64
		minsup   int
		maxRules int
	}{
		{"tictactoe", 1, 40, 12},
		{"chesskrvk", 0.3, 50, 12},
	} {
		p, err := synth.ProfileByName(tc.profile)
		if err != nil {
			t.Fatal(err)
		}
		d, _, err := synth.Generate(p.Scaled(tc.scale))
		if err != nil {
			t.Fatal(err)
		}
		cands, err := core.MineCandidates(context.Background(), d, tc.minsup, 0, core.Parallel(0))
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: %d rows, %d candidates", tc.profile, d.Size(), len(cands))
		for _, k := range []int{1, 25} {
			for _, workers := range []int{1, 4} {
				core.CheckSelectAgainstOracle(t, d, cands, k, workers, tc.maxRules)
			}
		}
	}
}

// BenchmarkSelectRounds times SELECT's rounds past the first on
// chesskrvk at scale 1.0 and minimum support 64 (16,693 candidates),
// SELECT(1) capped at 24 rules, one worker and one Session, with the
// candidates mined outside the timer. Round 1 counts every slot and
// builds the cover's index, so it is left out: us/round is the mean
// time from the first added rule to the 24th (rounds 2–24, scoring and
// applying), and refolds/op the exact bound refolds of a run
// (Work.Refolds).
func BenchmarkSelectRounds(b *testing.B) {
	const rules = 24
	d, cands := synthCandidates(b, "chesskrvk", 1.0, 64, 1)
	sess := core.NewSession()
	defer sess.Close()
	ctx := context.Background()
	var rounds time.Duration
	var refolds int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var first time.Time
		opt := core.SelectOptions{K: 1, MaxRules: rules, ParallelOptions: core.ParallelOptions{Workers: 1, Session: sess},
			OnIteration: func(it core.IterationStats) bool {
				switch it.Iteration {
				case 1:
					first = time.Now()
				case rules:
					rounds += time.Since(first)
				}
				return true
			}}
		res, err := core.MineSelect(ctx, d, cands, opt)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Table.Rules) != rules {
			b.Fatalf("%d rules, want %d", len(res.Table.Rules), rules)
		}
		refolds += res.Work.Refolds
	}
	b.ReportMetric(float64(rounds.Nanoseconds())/1e3/float64(b.N*(rules-1)), "us/round")
	b.ReportMetric(float64(refolds)/float64(b.N), "refolds/op")
}
