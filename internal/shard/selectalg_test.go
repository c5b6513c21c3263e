package shard

import (
	"context"
	"testing"

	"twoview/internal/core"
	"twoview/internal/dataset"
	"twoview/internal/synth"
)

// selectProfiles are the paper-profile inputs of the incremental SELECT
// tests: a narrow profile and one whose tidsets are wider than 128
// words, the same pair core's scoring-cache test uses.
var selectProfiles = []struct {
	name   string
	scale  float64
	minsup int
}{
	{"tictactoe", 0.3, 12},
	{"chesskrvk", 0.3, 50},
}

func profileInput(t *testing.T, name string, scale float64, minsup int) (*dataset.Dataset, []core.Candidate) {
	t.Helper()
	p, err := synth.ProfileByName(name)
	if err != nil {
		t.Fatal(err)
	}
	d, _, err := synth.Generate(p.Scaled(scale))
	if err != nil {
		t.Fatal(err)
	}
	cands, err := core.MineCandidates(context.Background(), d, minsup, 0, core.Parallel(0))
	if err != nil {
		t.Fatal(err)
	}
	return d, cands
}

// checkEngaged asserts that the coordinator's cache did its job in a
// run: every SCORE round after the first asked the shards for fewer
// (candidate, item) pairs than the first, which counts them all.
func checkEngaged(t *testing.T, label string, requested []int) {
	t.Helper()
	for i, n := range requested[1:] {
		if n >= requested[0] {
			t.Fatalf("%s: round %d requested %d pairs, round 1 %d; the cache is not engaging", label, i+2, n, requested[0])
		}
	}
}

// selectMaxRules bounds the property-test runs, which otherwise take a
// few seconds each under -race on chesskrvk.
const selectMaxRules = 20

// TestShardedSelectIncrementalMatchesMonolith is the property test of
// the incremental shard SCORE rounds on paper-profile data: for
// k ∈ {1, 25}, shards ∈ {1, 2, 3} and workers ∈ {1, 2}, the sharded
// SELECT run is bit-identical to the monolith (sameResult), and the
// cache is engaged in every run.
func TestShardedSelectIncrementalMatchesMonolith(t *testing.T) {
	ctx := context.Background()
	multiRound := false
	for _, pr := range selectProfiles {
		d, cands := profileInput(t, pr.name, pr.scale, pr.minsup)
		for _, k := range []int{1, 25} {
			opt := core.SelectOptions{K: k, MaxRules: selectMaxRules}
			ref, err := core.MineSelect(ctx, d, cands, opt)
			if err != nil {
				t.Fatal(err)
			}
			if len(ref.Table.Rules) < 2 {
				t.Fatalf("%s k=%d: the reference mined %d rules; test is vacuous", pr.name, k, len(ref.Table.Rules))
			}
			for _, shards := range []int{1, 2, 3} {
				for _, workers := range []int{1, 2} {
					label := formatCell(pr.name+" select", shards, workers)
					res, st, err := mineSelect(ctx, d, cands, opt, Config{Shards: shards, Workers: workers})
					if err != nil {
						t.Fatalf("%s k=%d: %v", label, k, err)
					}
					sameResult(t, label, ref, res)
					checkEngaged(t, label, st.requested)
					multiRound = multiRound || len(st.requested) > 1
				}
			}
		}
	}
	if !multiRound {
		t.Fatal("no run scored more than one round; the cache was never reused")
	}
}

// TestTCPShardedSelectIncremental is the TCP cell of the property test:
// masked SCORE requests cross the wire to two shardworker processes.
func TestTCPShardedSelectIncremental(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns shardworker processes")
	}
	pr := selectProfiles[1]
	d, cands := profileInput(t, pr.name, pr.scale, pr.minsup)
	ref, err := core.MineSelect(context.Background(), d, cands, core.SelectOptions{K: 25})
	if err != nil {
		t.Fatal(err)
	}
	w1 := startWorker(t, "", "")
	w2 := startWorker(t, "", "")
	cfg := Config{Shards: 2, Workers: 2, Addrs: []string{w1.addr, w2.addr}}
	res, st, err := mineSelect(context.Background(), d, cands, core.SelectOptions{K: 25}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "tcp "+pr.name+" select", ref, res)
	if len(st.requested) < 2 {
		t.Fatalf("%d SCORE rounds; no masked request crossed the wire", len(st.requested))
	}
	checkEngaged(t, "tcp "+pr.name+" select", st.requested)
}
