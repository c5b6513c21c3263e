package core

import (
	"context"
	"testing"
)

// Parallel candidate scoring must not change results: SELECT with one
// worker and with many workers produce identical tables.
func TestMineSelectParallelDeterminism(t *testing.T) {
	d := plantedDataset(t, 31)
	cands, err := MineCandidates(context.Background(), d, 1, 0, ParallelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	serial := mustSelect(t, d, cands, SelectOptions{K: 25, ParallelOptions: Parallel(1)})
	for _, workers := range []int{2, 4, 7} {
		par := mustSelect(t, d, cands, SelectOptions{K: 25, ParallelOptions: Parallel(workers)})
		if par.Table.Size() != serial.Table.Size() {
			t.Fatalf("workers=%d: %d rules, serial %d",
				workers, par.Table.Size(), serial.Table.Size())
		}
		for i := range serial.Table.Rules {
			if par.Table.Rules[i].Compare(serial.Table.Rules[i]) != 0 {
				t.Fatalf("workers=%d: rule %d differs", workers, i)
			}
		}
		if !sameTotals(par.Totals, serial.Totals) {
			t.Fatalf("workers=%d: score differs", workers)
		}
	}
}

// Parallel best-rule search must not change results: EXACT with one
// worker and with many workers produce bit-identical tables, per-rule
// gains, and final scores.
func TestMineExactParallelDeterminism(t *testing.T) {
	for _, seed := range []int64{31, 33, 35} {
		d := plantedDataset(t, seed)
		serial := mustExact(t, d, ExactOptions{ParallelOptions: Parallel(1)})
		if serial.Table.Size() == 0 {
			t.Fatalf("seed %d: serial found no rules", seed)
		}
		for _, workers := range []int{2, 4, 7} {
			par := mustExact(t, d, ExactOptions{ParallelOptions: Parallel(workers)})
			if par.Table.Size() != serial.Table.Size() {
				t.Fatalf("seed %d workers=%d: %d rules, serial %d",
					seed, workers, par.Table.Size(), serial.Table.Size())
			}
			for i := range serial.Table.Rules {
				if par.Table.Rules[i].Compare(serial.Table.Rules[i]) != 0 {
					t.Fatalf("seed %d workers=%d: rule %d differs: %v vs %v",
						seed, workers, i, par.Table.Rules[i], serial.Table.Rules[i])
				}
			}
			for i := range serial.Iterations {
				if par.Iterations[i].Gain != serial.Iterations[i].Gain {
					t.Fatalf("seed %d workers=%d: gain %d differs: %v vs %v",
						seed, workers, i, par.Iterations[i].Gain, serial.Iterations[i].Gain)
				}
			}
			if !sameTotals(par.Totals, serial.Totals) {
				t.Fatalf("seed %d workers=%d: totals %+v, serial %+v",
					seed, workers, par.Totals, serial.Totals)
			}
		}
	}
}

// The parallel search stays exact with the pruning bounds disabled (the
// ablation configurations walk the same enumeration).
func TestMineExactParallelNoBounds(t *testing.T) {
	d := plantedDataset(t, 34)
	serial := mustExact(t, d, ExactOptions{MaxRules: 3, ParallelOptions: Parallel(1)})
	par := mustExact(t, d, ExactOptions{MaxRules: 3, DisableRub: true, DisableQub: true, ParallelOptions: Parallel(4)})
	if par.Table.Size() != serial.Table.Size() {
		t.Fatalf("%d rules, serial %d", par.Table.Size(), serial.Table.Size())
	}
	for i := range serial.Table.Rules {
		if par.Table.Rules[i].Compare(serial.Table.Rules[i]) != 0 {
			t.Fatalf("rule %d differs", i)
		}
	}
	if !sameTotals(par.Totals, serial.Totals) {
		t.Fatal("score differs")
	}
}

// Default (Workers=0 → GOMAXPROCS) matches the serial result for EXACT.
func TestMineExactDefaultWorkers(t *testing.T) {
	d := plantedDataset(t, 36)
	a := mustExact(t, d, ExactOptions{MaxRules: 4, ParallelOptions: Parallel(1)})
	b := mustExact(t, d, ExactOptions{MaxRules: 4})
	if a.Table.Size() != b.Table.Size() || !sameTotals(a.Totals, b.Totals) {
		t.Fatal("default workers changed the result")
	}
}

// Default (Workers=0 → GOMAXPROCS) matches the serial result too.
func TestMineSelectDefaultWorkers(t *testing.T) {
	d := plantedDataset(t, 32)
	cands, err := MineCandidates(context.Background(), d, 1, 0, ParallelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	a := mustSelect(t, d, cands, SelectOptions{K: 1, ParallelOptions: Parallel(1)})
	b := mustSelect(t, d, cands, SelectOptions{K: 1})
	if a.Table.Size() != b.Table.Size() || !sameTotals(a.Totals, b.Totals) {
		t.Fatal("default workers changed the result")
	}
}

// Speculative block scoring must not change GREEDY results: one worker
// and many workers produce bit-identical tables, gains and scores.
func TestMineGreedyParallelDeterminism(t *testing.T) {
	for _, seed := range []int64{31, 35} {
		d := plantedDataset(t, seed)
		cands, err := MineCandidates(context.Background(), d, 1, 0, ParallelOptions{})
		if err != nil {
			t.Fatal(err)
		}
		serial := mustGreedy(t, d, cands, GreedyOptions{ParallelOptions: Parallel(1)})
		if serial.Table.Size() == 0 {
			t.Fatalf("seed %d: serial found no rules", seed)
		}
		for _, workers := range []int{2, 4, 7} {
			par := mustGreedy(t, d, cands, GreedyOptions{ParallelOptions: Parallel(workers)})
			if par.Table.Size() != serial.Table.Size() {
				t.Fatalf("seed %d workers=%d: %d rules, serial %d",
					seed, workers, par.Table.Size(), serial.Table.Size())
			}
			for i := range serial.Table.Rules {
				if par.Table.Rules[i].Compare(serial.Table.Rules[i]) != 0 {
					t.Fatalf("seed %d workers=%d: rule %d differs", seed, workers, i)
				}
			}
			for i := range serial.Iterations {
				if par.Iterations[i].Gain != serial.Iterations[i].Gain {
					t.Fatalf("seed %d workers=%d: gain %d differs", seed, workers, i)
				}
			}
			if !sameTotals(par.Totals, serial.Totals) {
				t.Fatalf("seed %d workers=%d: score differs", seed, workers)
			}
		}
	}
}

// The MaxRules cut must land on the same prefix for any worker count
// (the speculative walk may not run past the cap).
func TestMineGreedyParallelMaxRules(t *testing.T) {
	d := plantedDataset(t, 37)
	cands, err := MineCandidates(context.Background(), d, 1, 0, ParallelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	serial := mustGreedy(t, d, cands, GreedyOptions{MaxRules: 2, ParallelOptions: Parallel(1)})
	par := mustGreedy(t, d, cands, GreedyOptions{MaxRules: 2, ParallelOptions: Parallel(4)})
	if serial.Table.Size() != par.Table.Size() {
		t.Fatalf("%d rules, serial %d", par.Table.Size(), serial.Table.Size())
	}
	for i := range serial.Table.Rules {
		if par.Table.Rules[i].Compare(serial.Table.Rules[i]) != 0 {
			t.Fatalf("rule %d differs", i)
		}
	}
}

// The parallel ECLAT walk must not change the candidate set: identical
// itemsets, supports and cached tidsets in identical order for any
// worker count.
func TestMineCandidatesParallelDeterminism(t *testing.T) {
	d := plantedDataset(t, 31)
	serial, err := MineCandidates(context.Background(), d, 1, 0, Parallel(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) == 0 {
		t.Fatal("no candidates")
	}
	for _, workers := range []int{2, 4, 7} {
		par, err := MineCandidates(context.Background(), d, 1, 0, Parallel(workers))
		if err != nil {
			t.Fatal(err)
		}
		if len(par) != len(serial) {
			t.Fatalf("workers=%d: %d candidates, serial %d", workers, len(par), len(serial))
		}
		for i := range serial {
			if !par[i].X.Equal(serial[i].X) || !par[i].Y.Equal(serial[i].Y) ||
				par[i].Supp != serial[i].Supp {
				t.Fatalf("workers=%d: candidate %d differs", workers, i)
			}
			if !par[i].TidX.Equal(serial[i].TidX) || !par[i].TidY.Equal(serial[i].TidY) {
				t.Fatalf("workers=%d: candidate %d tidsets differ", workers, i)
			}
		}
	}
}

// The capped variant raises the support identically for any worker count
// (the overflow guard is schedule-independent), and the explosion error
// itself is deterministic.
func TestMineCandidatesCappedParallelDeterminism(t *testing.T) {
	d := plantedDataset(t, 33)
	serial, ms1, err := MineCandidatesCapped(context.Background(), d, 1, 10, Parallel(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 7} {
		par, ms, err := MineCandidatesCapped(context.Background(), d, 1, 10, Parallel(workers))
		if err != nil {
			t.Fatal(err)
		}
		if ms != ms1 || len(par) != len(serial) {
			t.Fatalf("workers=%d: minsup %d / %d cands, serial %d / %d",
				workers, ms, len(par), ms1, len(serial))
		}
		for i := range serial {
			if !par[i].X.Equal(serial[i].X) || !par[i].Y.Equal(serial[i].Y) {
				t.Fatalf("workers=%d: candidate %d differs", workers, i)
			}
		}
	}
	if _, err := MineCandidates(context.Background(), d, 1, 2, Parallel(4)); err == nil {
		t.Fatal("parallel MaxResults guard did not trigger")
	}
}
