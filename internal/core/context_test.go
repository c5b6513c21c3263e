package core

import (
	"context"
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"

	"twoview/internal/dataset"
)

// The acceptance contract of the v2 API: a mid-search cancellation of
// each miner returns context.Canceled promptly, the partial table mined
// before the cut is still returned, and the Session stays fully
// reusable — a follow-up mine on the same Session reproduces the
// uncancelled reference bit for bit.

// minerRun adapts the three miners to one shape for the cancellation
// tests.
type minerRun func(ctx context.Context, onIter IterationFunc, par ParallelOptions) (*Result, error)

func minerRuns(d *datasetWithCands) map[string]minerRun {
	return map[string]minerRun{
		"exact": func(ctx context.Context, onIter IterationFunc, par ParallelOptions) (*Result, error) {
			return MineExact(ctx, d.d, ExactOptions{OnIteration: onIter, ParallelOptions: par})
		},
		"select": func(ctx context.Context, onIter IterationFunc, par ParallelOptions) (*Result, error) {
			return MineSelect(ctx, d.d, d.cands, SelectOptions{K: 1, OnIteration: onIter, ParallelOptions: par})
		},
		"greedy": func(ctx context.Context, onIter IterationFunc, par ParallelOptions) (*Result, error) {
			return MineGreedy(ctx, d.d, d.cands, GreedyOptions{OnIteration: onIter, ParallelOptions: par})
		},
	}
}

type datasetWithCands struct {
	d     *dataset.Dataset
	cands []Candidate
}

// twoPatternDataset plants two disjoint bidirectional associations, so
// every miner needs at least two iterations — room for a mid-search
// cut between them.
func twoPatternDataset(t testing.TB, seed int64) *dataset.Dataset {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	d := dataset.MustNew(dataset.GenericNames("l", 8), dataset.GenericNames("r", 8))
	for i := 0; i < 120; i++ {
		var left, right []int
		if i%2 == 0 {
			left = append(left, 0, 1)
			right = append(right, 0, 1)
		}
		if i%3 != 0 {
			left = append(left, 2, 3)
			right = append(right, 2, 3)
		}
		for j := 4; j < 8; j++ {
			if r.Intn(6) == 0 {
				left = append(left, j)
			}
			if r.Intn(6) == 0 {
				right = append(right, j)
			}
		}
		if err := d.AddRow(left, right); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

// TestMinerCancellationMidSearch cancels each miner from its own
// OnIteration hook — a deterministic mid-search cut — and checks the
// contract for every worker count, reusing one Session across the
// cancelled run and a follow-up full run.
func TestMinerCancellationMidSearch(t *testing.T) {
	d := twoPatternDataset(t, 41)
	cands := mustCandidates(t, d, 1, 0, Parallel(1))
	fixture := &datasetWithCands{d: d, cands: cands}

	// Uncancelled references, serial.
	refs := map[string]*Result{}
	for name, run := range minerRuns(fixture) {
		res, err := run(context.Background(), nil, Parallel(1))
		if err != nil {
			t.Fatalf("%s reference: %v", name, err)
		}
		if res.Table.Size() < 2 {
			t.Fatalf("%s reference found %d rules; need ≥ 2 for a mid-search cut", name, res.Table.Size())
		}
		refs[name] = res
	}

	for _, workers := range []int{1, 2, 4, 7} {
		sess := NewSession()
		par := ParallelOptions{Workers: workers, Session: sess}
		for name, run := range minerRuns(fixture) {
			ctx, cancel := context.WithCancel(context.Background())
			res, err := run(ctx, func(IterationStats) bool { cancel(); return true }, par)
			cancel()
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("workers=%d %s: err = %v, want context.Canceled", workers, name, err)
			}
			if res == nil || res.Table.Size() == 0 {
				t.Fatalf("workers=%d %s: cancelled run returned no partial table", workers, name)
			}
			if res.Table.Size() >= refs[name].Table.Size() {
				t.Fatalf("workers=%d %s: cancellation did not cut the run (%d rules, reference %d)",
					workers, name, res.Table.Size(), refs[name].Table.Size())
			}
			// The partial table must be a prefix of the reference: the
			// run was bit-identical up to the cut.
			for i := range res.Table.Rules {
				if res.Table.Rules[i].Compare(refs[name].Table.Rules[i]) != 0 {
					t.Fatalf("workers=%d %s: partial rule %d differs from reference", workers, name, i)
				}
			}

			// The Session survives the cancelled run: a follow-up mine on
			// the same Session reproduces the reference exactly.
			again, err := run(context.Background(), nil, par)
			if err != nil {
				t.Fatalf("workers=%d %s: follow-up mine on the same session: %v", workers, name, err)
			}
			if again.Table.Size() != refs[name].Table.Size() {
				t.Fatalf("workers=%d %s: follow-up found %d rules, reference %d",
					workers, name, again.Table.Size(), refs[name].Table.Size())
			}
			for i := range again.Table.Rules {
				if again.Table.Rules[i].Compare(refs[name].Table.Rules[i]) != 0 {
					t.Fatalf("workers=%d %s: follow-up rule %d differs", workers, name, i)
				}
			}
			if !sameTotals(again.Totals, refs[name].Totals) {
				t.Fatalf("workers=%d %s: follow-up score differs", workers, name)
			}
		}
		sess.Close()
	}
}

// TestMinerPreCancelled: a context cancelled before the call returns
// immediately with an empty table and context.Canceled.
func TestMinerPreCancelled(t *testing.T) {
	d := plantedDataset(t, 42)
	cands := mustCandidates(t, d, 1, 0, Parallel(1))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for name, run := range minerRuns(&datasetWithCands{d: d, cands: cands}) {
		res, err := run(ctx, nil, ParallelOptions{})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v, want context.Canceled", name, err)
		}
		if res.Table.Size() != 0 {
			t.Fatalf("%s: pre-cancelled run mined %d rules", name, res.Table.Size())
		}
	}
	if _, err := MineCandidates(ctx, d, 1, 0, ParallelOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("MineCandidates: err = %v, want context.Canceled", err)
	}
	if _, _, err := MineCandidatesCapped(ctx, d, 1, 10, ParallelOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("MineCandidatesCapped: err = %v, want context.Canceled", err)
	}
	if _, err := Apply(ctx, d, &Table{}, 0); !errors.Is(err, context.Canceled) {
		// An empty table applies in zero rows... the probe still fires
		// before the first row batch.
		t.Fatalf("Apply: err = %v, want context.Canceled", err)
	}
}

// countdownCtx is a context whose Err flips to Canceled after a fixed
// number of probes — a deterministic way to cut a run *inside* a search
// phase (between tasks or at an in-branch probe) rather than at an
// iteration boundary. Done/Deadline/Value delegate to the parent; the
// mining paths only consult Err.
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

// TestMinerCancellationMidPhase cuts each miner inside its search
// phases via a probe-countdown context: the run must return
// context.Canceled without wedging, for serial and parallel workers.
func TestMinerCancellationMidPhase(t *testing.T) {
	d := plantedDataset(t, 43)
	cands := mustCandidates(t, d, 1, 0, Parallel(1))
	for _, workers := range []int{1, 4} {
		sess := NewSession()
		par := ParallelOptions{Workers: workers, Session: sess}
		for name, run := range minerRuns(&datasetWithCands{d: d, cands: cands}) {
			ctx := &countdownCtx{Context: context.Background(), limit: 3}
			_, err := run(ctx, nil, par)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("workers=%d %s: err = %v, want context.Canceled", workers, name, err)
			}
		}
		// Candidate mining through the same session's runtime.
		ctx := &countdownCtx{Context: context.Background(), limit: 1}
		if _, err := MineCandidates(ctx, d, 1, 0, par); !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d candidates: err = %v, want context.Canceled", workers, err)
		}
		// The session is still usable after every mid-phase cut.
		if res := mustExact(t, d, ExactOptions{MaxRules: 1, ParallelOptions: par}); res.Table.Size() != 1 {
			t.Fatalf("workers=%d: session unusable after mid-phase cancellations", workers)
		}
		sess.Close()
	}
}

// TestOnIterationEarlyStop: returning false stops cleanly — partial
// table, nil error — for all three miners.
func TestOnIterationEarlyStop(t *testing.T) {
	d := twoPatternDataset(t, 44)
	cands := mustCandidates(t, d, 1, 0, Parallel(1))
	for name, run := range minerRuns(&datasetWithCands{d: d, cands: cands}) {
		ref, err := run(context.Background(), nil, Parallel(1))
		if err != nil {
			t.Fatal(err)
		}
		if ref.Table.Size() < 2 {
			t.Fatalf("%s: reference too small (%d rules)", name, ref.Table.Size())
		}
		res, err := run(context.Background(), func(it IterationStats) bool { return it.Iteration < 1+1 }, Parallel(1))
		if err != nil {
			t.Fatalf("%s: early stop must not error: %v", name, err)
		}
		if res.Table.Size() != 2 {
			t.Fatalf("%s: stopped after %d rules, want 2", name, res.Table.Size())
		}
		for i := range res.Table.Rules {
			if res.Table.Rules[i].Compare(ref.Table.Rules[i]) != 0 {
				t.Fatalf("%s: early-stopped rule %d differs from reference", name, i)
			}
		}
	}
}

// The hook also observes without stopping: returning true throughout
// must not change the result.
func TestOnIterationObserveOnly(t *testing.T) {
	d := plantedDataset(t, 45)
	cands := mustCandidates(t, d, 1, 0, Parallel(1))
	seen := 0
	res, err := MineSelect(context.Background(), d, cands, SelectOptions{K: 1,
		OnIteration: func(IterationStats) bool { seen++; return true }})
	if err != nil {
		t.Fatal(err)
	}
	if seen != res.Table.Size() {
		t.Fatalf("hook saw %d iterations, table has %d rules", seen, res.Table.Size())
	}
	ref := mustSelect(t, d, cands, SelectOptions{K: 1})
	if res.Table.Size() != ref.Table.Size() || !sameTotals(res.Totals, ref.Totals) {
		t.Fatal("observing hook changed the result")
	}
}
