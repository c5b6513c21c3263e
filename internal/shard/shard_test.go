package shard

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"sync/atomic"
	"testing"

	"twoview/internal/core"
	"twoview/internal/dataset"
)

// The acceptance grid of the sharded engine: SELECT and GREEDY must be
// bit-identical to the monolith for shards ∈ {1,2,4,7} × workers ∈
// {1,2,4,7} (7 > the 6-item alphabets, so the grid includes empty
// partitions). "Bit-identical" is literal: rules compared rule-for-rule
// and every float of every IterationStats compared with ==.

var gridShards = []int{1, 2, 4, 7}
var gridWorkers = []int{1, 2, 4, 7}

// plantedDataset mirrors core's test fixture: a strong bidirectional
// association {l0,l1} <-> {r0,r1} in 60 of 80 transactions plus noise.
func plantedDataset(t testing.TB, seed int64) *dataset.Dataset {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	d := dataset.MustNew(dataset.GenericNames("l", 6), dataset.GenericNames("r", 6))
	for i := 0; i < 80; i++ {
		var left, right []int
		if i < 60 {
			left = append(left, 0, 1)
			right = append(right, 0, 1)
		}
		for j := 2; j < 6; j++ {
			if r.Intn(5) == 0 {
				left = append(left, j)
			}
			if r.Intn(5) == 0 {
				right = append(right, j)
			}
		}
		if err := d.AddRow(left, right); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

// twoPlantDataset plants two disjoint associations — {l0,l1} <-> {r0,r1}
// and {l2,l3} <-> {r2,r3} — so the miners accept several rules, for
// tests that need truncation to bite.
func twoPlantDataset(t testing.TB, seed int64) *dataset.Dataset {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	d := dataset.MustNew(dataset.GenericNames("l", 6), dataset.GenericNames("r", 6))
	for i := 0; i < 80; i++ {
		var left, right []int
		if i < 50 {
			left = append(left, 0, 1)
			right = append(right, 0, 1)
		}
		if i >= 30 {
			left = append(left, 2, 3)
			right = append(right, 2, 3)
		}
		for j := 4; j < 6; j++ {
			if r.Intn(5) == 0 {
				left = append(left, j)
			}
			if r.Intn(5) == 0 {
				right = append(right, j)
			}
		}
		if err := d.AddRow(left, right); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

func mustCandidates(t testing.TB, d *dataset.Dataset) []core.Candidate {
	t.Helper()
	cands, err := core.MineCandidates(context.Background(), d, 5, 0, core.ParallelOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return cands
}

// sameResult asserts got is bit-identical to the reference: the table
// rule-for-rule, every recorded iteration float-for-float, and the
// final score and totals.
func sameResult(t *testing.T, label string, want, got *core.Result) {
	t.Helper()
	if len(got.Table.Rules) != len(want.Table.Rules) {
		t.Fatalf("%s: %d rules, want %d", label, len(got.Table.Rules), len(want.Table.Rules))
	}
	for i := range want.Table.Rules {
		if got.Table.Rules[i].Compare(want.Table.Rules[i]) != 0 {
			t.Fatalf("%s: rule %d = %v, want %v", label, i, got.Table.Rules[i], want.Table.Rules[i])
		}
	}
	if len(got.Iterations) != len(want.Iterations) {
		t.Fatalf("%s: %d iterations, want %d", label, len(got.Iterations), len(want.Iterations))
	}
	for i, w := range want.Iterations {
		g := got.Iterations[i]
		if g.Gain != w.Gain || g.Score != w.Score ||
			g.UncoveredL != w.UncoveredL || g.UncoveredR != w.UncoveredR ||
			g.ErrorsL != w.ErrorsL || g.ErrorsR != w.ErrorsR ||
			g.TableLen != w.TableLen || g.CorrLenL != w.CorrLenL || g.CorrLenR != w.CorrLenR {
			t.Fatalf("%s: iteration %d diverges:\n got %+v\nwant %+v", label, i, g, w)
		}
	}
	if g, w := got.Totals.Score(got.Table), want.Totals.Score(want.Table); g != w {
		t.Fatalf("%s: final score %v, want %v", label, g, w)
	}
	if g, w := got.Totals, want.Totals; g.UOnes != w.UOnes || g.EOnes != w.EOnes || g.CorrLen != w.CorrLen {
		t.Fatalf("%s: final totals %+v, want %+v", label, g, w)
	}
}

// TestExactIgnoresShardKnobs pins that EXACT always runs in-process:
// with Shards set, and with ShardAddrs naming a port nobody listens on,
// MineExact returns the monolith's table with a nil error. A listener
// that counts its connections stands in for a worker, to show that
// MineExact never dials.
func TestExactIgnoresShardKnobs(t *testing.T) {
	d := plantedDataset(t, 7)
	ref, err := core.MineExact(context.Background(), d, core.ExactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Table.Rules) == 0 {
		t.Fatal("reference mined no rules; test is vacuous")
	}

	// A port nobody listens on: bind one, note it, release it.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()

	watch, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer watch.Close()
	var dials atomic.Int32
	go func() {
		for {
			c, err := watch.Accept()
			if err != nil {
				return
			}
			dials.Add(1)
			c.Close()
		}
	}()

	for _, cell := range []struct {
		label string
		par   core.ParallelOptions
	}{
		{"shards=2", core.ParallelOptions{Shards: 2}},
		{"shards=2 workers=2", core.ParallelOptions{Shards: 2, Workers: 2}},
		{"unused address", core.ParallelOptions{ShardAddrs: []string{dead}}},
		{"watched address", core.ParallelOptions{Shards: 2, ShardAddrs: []string{watch.Addr().String()}}},
	} {
		res, err := core.MineExact(context.Background(), d, core.ExactOptions{ParallelOptions: cell.par})
		if err != nil {
			t.Fatalf("%s: %v", cell.label, err)
		}
		sameResult(t, "exact "+cell.label, ref, res)
	}
	if n := dials.Load(); n != 0 {
		t.Fatalf("MineExact dialed the shard address %d times, want 0", n)
	}
}

// TestShardedSelectDeterminism pins MineSelect (k=3) across the grid.
func TestShardedSelectDeterminism(t *testing.T) {
	d := plantedDataset(t, 11)
	cands := mustCandidates(t, d)
	ref, err := core.MineSelect(context.Background(), d, cands, core.SelectOptions{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Table.Rules) == 0 {
		t.Fatal("reference mined no rules; test is vacuous")
	}
	for _, shards := range gridShards {
		for _, workers := range gridWorkers {
			opt := core.SelectOptions{K: 3, ParallelOptions: core.ParallelOptions{Shards: shards, Workers: workers}}
			res, err := core.MineSelect(context.Background(), d, cands, opt)
			if err != nil {
				t.Fatalf("shards=%d workers=%d: %v", shards, workers, err)
			}
			sameResult(t, formatCell("select", shards, workers), ref, res)
		}
	}
}

// TestShardedGreedyDeterminism pins MineGreedy across the grid.
func TestShardedGreedyDeterminism(t *testing.T) {
	d := plantedDataset(t, 13)
	cands := mustCandidates(t, d)
	ref, err := core.MineGreedy(context.Background(), d, cands, core.GreedyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Table.Rules) == 0 {
		t.Fatal("reference mined no rules; test is vacuous")
	}
	for _, shards := range gridShards {
		for _, workers := range gridWorkers {
			opt := core.GreedyOptions{ParallelOptions: core.ParallelOptions{Shards: shards, Workers: workers}}
			res, err := core.MineGreedy(context.Background(), d, cands, opt)
			if err != nil {
				t.Fatalf("shards=%d workers=%d: %v", shards, workers, err)
			}
			sameResult(t, formatCell("greedy", shards, workers), ref, res)
		}
	}
}

// TestShardedSelectOptionsParity pins the option paths the grid doesn't
// cover: MaxRules truncation and the OnIteration early stop must cut
// the sharded run at the same rule as the monolith.
func TestShardedSelectOptionsParity(t *testing.T) {
	d := twoPlantDataset(t, 17)
	cands := mustCandidates(t, d)
	refFull, err := core.MineSelect(context.Background(), d, cands, core.SelectOptions{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(refFull.Table.Rules) < 2 {
		t.Fatal("need at least 2 reference rules; fixture broken")
	}

	ref, err := core.MineSelect(context.Background(), d, cands, core.SelectOptions{K: 3, MaxRules: 2})
	if err != nil {
		t.Fatal(err)
	}
	got, err := core.MineSelect(context.Background(), d, cands, core.SelectOptions{
		K: 3, MaxRules: 2,
		ParallelOptions: core.ParallelOptions{Shards: 3, Workers: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "select maxrules=2", ref, got)

	stopAfter := func(n int) core.IterationFunc {
		return func(it core.IterationStats) bool { return it.Iteration < n }
	}
	ref, err = core.MineSelect(context.Background(), d, cands, core.SelectOptions{K: 3, OnIteration: stopAfter(2)})
	if err != nil {
		t.Fatal(err)
	}
	got, err = core.MineSelect(context.Background(), d, cands, core.SelectOptions{
		K: 3, OnIteration: stopAfter(2),
		ParallelOptions: core.ParallelOptions{Shards: 2, Workers: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "select early stop", ref, got)
}

// TestShardedCancel pins the cancellation contract: a cancelled context
// surfaces as ctx.Err() with the partial table intact and the run torn
// down cleanly.
func TestShardedCancel(t *testing.T) {
	d := plantedDataset(t, 19)
	cands := mustCandidates(t, d)
	ctx, cancel := context.WithCancel(context.Background())
	stopped := false
	opt := core.SelectOptions{
		K: 1,
		OnIteration: func(core.IterationStats) bool {
			cancel() // cancel mid-run, at an iteration boundary
			stopped = true
			return true
		},
		ParallelOptions: core.ParallelOptions{Shards: 2, Workers: 2},
	}
	res, err := core.MineSelect(ctx, d, cands, opt)
	if !stopped {
		t.Fatal("run finished before the hook fired; cancellation untested")
	}
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil || res.Table == nil || len(res.Table.Rules) == 0 {
		t.Fatal("cancelled run lost its partial table")
	}
}

// TestSplitCoversAlphabets pins the partition arithmetic: ascending,
// contiguous, covering, and tolerant of n > items.
func TestSplitCoversAlphabets(t *testing.T) {
	d := plantedDataset(t, 23)
	for _, n := range []int{1, 2, 3, 6, 7, 13} {
		parts := split(d, n)
		if len(parts) != n {
			t.Fatalf("n=%d: %d partitions", n, len(parts))
		}
		loL, loR := 0, 0
		for p, pt := range parts {
			if pt.Index != p || pt.LoL != loL || pt.LoR != loR || pt.HiL < pt.LoL || pt.HiR < pt.LoR {
				t.Fatalf("n=%d: partition %d malformed: %+v", n, p, pt)
			}
			loL, loR = pt.HiL, pt.HiR
		}
		if loL != d.Items(dataset.Left) || loR != d.Items(dataset.Right) {
			t.Fatalf("n=%d: ranges end at (%d, %d), want (%d, %d)",
				n, loL, loR, d.Items(dataset.Left), d.Items(dataset.Right))
		}
	}
}

func formatCell(miner string, shards, workers int) string {
	return fmt.Sprintf("%s shards=%d workers=%d", miner, shards, workers)
}
