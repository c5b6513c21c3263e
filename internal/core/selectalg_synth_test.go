package core_test

import (
	"context"
	"testing"

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
