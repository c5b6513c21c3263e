package pool

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
)

// A context cancelled before submission runs no tasks at all.
func TestRunCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rt := NewRuntime()
	defer rt.Close()
	p := NewOn(rt, 4, func(int) int { return 0 })
	var ran atomic.Int64
	err := p.RunCtx(ctx, 100, func(int, int) { ran.Add(1) })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	err = p.RunErrCtx(ctx, 100, func(int, int) error { ran.Add(1); return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunErrCtx err = %v, want context.Canceled", err)
	}
	if n := ran.Load(); n != 0 {
		t.Fatalf("%d tasks ran on a pre-cancelled context", n)
	}
}

// Cancelling mid-phase stops the dispensing of new tasks, drains the
// running ones, and leaves the Runtime fully reusable: a follow-up
// phase on the same runtime (and the same pool) completes normally.
func TestRunCtxMidPhaseCancelDrainsAndReuses(t *testing.T) {
	rt := NewRuntime()
	defer rt.Close()
	for _, workers := range []int{1, 2, 4, 7} {
		ctx, cancel := context.WithCancel(context.Background())
		p := NewOn(rt, workers, func(int) int { return 0 })
		var ran atomic.Int64
		err := p.RunCtx(ctx, 1000, func(_ int, task int) {
			if task == 3 {
				cancel()
			}
			ran.Add(1)
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if n := ran.Load(); n >= 1000 {
			t.Fatalf("workers=%d: cancellation did not cut the phase (%d tasks ran)", workers, n)
		}
		// The runtime must not be wedged: a fresh phase completes.
		ran.Store(0)
		if err := p.RunCtx(context.Background(), 50, func(int, int) { ran.Add(1) }); err != nil {
			t.Fatalf("workers=%d: follow-up phase failed: %v", workers, err)
		}
		if n := ran.Load(); n != 50 {
			t.Fatalf("workers=%d: follow-up phase ran %d of 50 tasks", workers, n)
		}
		cancel()
	}
}

// The context error takes precedence over task errors in RunErrCtx, and
// plain task errors still pass through untouched when the context stays
// alive.
func TestRunErrCtx(t *testing.T) {
	rt := NewRuntime()
	defer rt.Close()
	p := NewOn(rt, 3, func(int) int { return 0 })

	errBoom := errors.New("boom")
	err := p.RunErrCtx(context.Background(), 20, func(_ int, task int) error {
		if task == 5 {
			return errBoom
		}
		return nil
	})
	if !errors.Is(err, errBoom) {
		t.Fatalf("err = %v, want %v", err, errBoom)
	}

	ctx, cancel := context.WithCancel(context.Background())
	err = p.RunErrCtx(ctx, 20, func(_ int, task int) error {
		if task == 2 {
			cancel()
			return errBoom // the context error must win
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// With an uncancelled context the ctx primitives compute exactly what
// Run computes: each task writing its own slot yields the ordered
// output for every worker count.
func TestCtxVariantsMatchPlainOnes(t *testing.T) {
	rt := NewRuntime()
	defer rt.Close()
	const n = 500
	for _, workers := range []int{1, 2, 4, 7} {
		p := NewOn(rt, workers, func(int) struct{} { return struct{}{} })
		outs := make([][]int, 4)
		for k := range outs {
			outs[k] = make([]int, n)
		}
		p.Run(n, func(_ struct{}, i int) { outs[0][i] = i * i })
		if err := p.RunCtx(context.Background(), n, func(_ struct{}, i int) { outs[1][i] = i * i }); err != nil {
			t.Fatal(err)
		}
		if err := p.RunErrCtx(context.Background(), n, func(_ struct{}, i int) error { outs[2][i] = i * i; return nil }); err != nil {
			t.Fatal(err)
		}
		if err := ForChunksCtxOn(rt, context.Background(), workers, n, 16, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				outs[3][i] = i * i
			}
		}); err != nil {
			t.Fatal(err)
		}
		for k, out := range outs {
			for i, v := range out {
				if v != i*i {
					t.Fatalf("workers=%d: primitive %d: out[%d] = %d, want %d", workers, k, i, v, i*i)
				}
			}
		}
	}
}

// ForChunksCtxOn visits every index of [0, n) exactly once, in the
// same fixed chunks for every worker count, and runs no chunk once the
// context is cancelled.
func TestForChunksCtxOn(t *testing.T) {
	rt := NewRuntime()
	defer rt.Close()
	for _, n := range []int{0, 1, 63, 64, 65, 500} {
		for _, workers := range []int{1, 2, 4, 7} {
			owner := make([]int, n)
			err := ForChunksCtxOn(rt, context.Background(), workers, n, 64, func(lo, hi int) {
				if lo%64 != 0 || hi != min(lo+64, n) {
					t.Errorf("n=%d workers=%d: chunk [%d, %d)", n, workers, lo, hi)
				}
				for i := lo; i < hi; i++ {
					owner[i]++
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			for i, c := range owner {
				if c != 1 {
					t.Fatalf("n=%d workers=%d: index %d visited %d times", n, workers, i, c)
				}
			}
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		ran := false
		err := ForChunksCtxOn(rt, ctx, workers, 100, 8, func(lo, hi int) { ran = true })
		if !errors.Is(err, context.Canceled) || ran {
			t.Fatalf("workers=%d: cancelled ForChunksCtxOn err = %v, ran = %v", workers, err, ran)
		}
	}
}

// A storm of cancelled phases leaves the runtime healthy for a final
// full phase — the drain path never leaks or wedges workers.
func TestRepeatedCancelledPhases(t *testing.T) {
	rt := NewRuntime()
	defer rt.Close()
	p := NewOn(rt, 6, func(int) int { return 0 })
	for i := 0; i < 50; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		_ = p.RunCtx(ctx, 200, func(_ int, task int) {
			if task == 0 {
				cancel()
			}
		})
		cancel()
	}
	var ran atomic.Int64
	if err := p.RunCtx(context.Background(), 100, func(int, int) { ran.Add(1) }); err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 100 {
		t.Fatalf("final phase ran %d of 100 tasks", ran.Load())
	}
}
