package pool

import (
	"context"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Many small phases on one pool: the round-structured shape of the
// searches (SELECT rounds, GREEDY blocks). Every task of every phase
// must run exactly once. Run under -race in CI, this also checks the
// phase barrier publishes worker-state writes.
func TestRuntimeManySmallPhases(t *testing.T) {
	p := New(4, func(w int) *int { return new(int) })
	want := 0
	for round := 0; round < 300; round++ {
		tasks := round % 9 // includes zero-task phases
		want += tasks
		p.Run(tasks, func(s *int, _ int) { *s++ })
	}
	got := 0
	for _, s := range p.States() {
		got += *s
	}
	if got != want {
		t.Fatalf("ran %d tasks across phases, want %d", got, want)
	}
}

// Sequential pools and a chunked phase, each running every task once.
func TestRuntimeSharedAcrossPools(t *testing.T) {
	for i := 0; i < 10; i++ {
		p := New(3, func(w int) *[]int { return new([]int) })
		p.Run(50, func(s *[]int, task int) { *s = append(*s, task) })
		n := 0
		for _, s := range p.States() {
			n += len(*s)
		}
		if n != 50 {
			t.Fatalf("pool %d: %d tasks ran, want 50", i, n)
		}
	}
	chunks := make([]int, 100)
	if err := ForChunksCtx(context.Background(), 4, 100, 8, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			chunks[i] = i
		}
	}); err != nil {
		t.Fatal(err)
	}
	for i, v := range chunks {
		if v != i {
			t.Fatalf("ForChunksCtx: chunks[%d] = %d", i, v)
		}
	}
}

// A panic in a task must propagate to the submitting goroutine after
// the panicking phase's barrier releases, and the same pool keeps
// executing subsequent phases.
func TestRuntimePanicDoesNotWedgeWorkers(t *testing.T) {
	p := New(4, func(w int) struct{} { return struct{}{} })

	for round := 0; round < 3; round++ {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("round %d: panic did not propagate", round)
				}
				if s, ok := r.(string); !ok || !strings.Contains(s, "boom") {
					t.Fatalf("round %d: unexpected panic value %v", round, r)
				}
			}()
			p.Run(100, func(_ struct{}, task int) {
				if task == 17 {
					panic("boom")
				}
			})
		}()

		// The pool must still be fully operational.
		var ran atomic.Int64
		p.Run(64, func(struct{}, int) { ran.Add(1) })
		if ran.Load() != 64 {
			t.Fatalf("round %d: %d tasks ran after panic, want 64", round, ran.Load())
		}
	}
}

// Panic propagation on the serial (inline) path needs no recovery
// machinery but must behave the same.
func TestRuntimePanicSerial(t *testing.T) {
	p := New(1, func(w int) struct{} { return struct{}{} })
	defer func() {
		if recover() == nil {
			t.Fatal("serial panic did not propagate")
		}
	}()
	p.Run(5, func(_ struct{}, task int) {
		if task == 3 {
			panic("boom")
		}
	})
}

// Pool edge cases: more workers than tasks, and zero tasks.
func TestPoolEdgeCases(t *testing.T) {

	// workers > tasks: every task still runs exactly once.
	p := New(7, func(w int) *[]int { return new([]int) })
	p.Run(3, func(s *[]int, task int) { *s = append(*s, task) })
	seen := map[int]int{}
	for _, s := range p.States() {
		for _, task := range *s {
			seen[task]++
		}
	}
	if len(seen) != 3 || seen[0] != 1 || seen[1] != 1 || seen[2] != 1 {
		t.Fatalf("workers>tasks: task coverage %v", seen)
	}

	// tasks == 0: no-op, no deadlock, states untouched.
	ran := false
	p.Run(0, func(*[]int, int) { ran = true })
	if ran {
		t.Fatal("zero-task phase ran a task")
	}
	if err := p.RunErrCtx(context.Background(), 0, func(*[]int, int) error { return nil }); err != nil {
		t.Fatalf("zero-task RunErrCtx: %v", err)
	}
}

// RunErrCtx: failures stop dispensing, the pool stays usable, and the
// phase barrier releases with tasks left undispensed.
func TestRuntimeRunErrStops(t *testing.T) {
	p := New(4, func(w int) struct{} { return struct{}{} })
	var dispensed atomic.Int64
	err := p.RunErrCtx(context.Background(), 10_000, func(_ struct{}, task int) error {
		dispensed.Add(1)
		if task >= 5 {
			return errBoom{}
		}
		return nil
	})
	if err == nil {
		t.Fatal("error not returned")
	}
	if n := dispensed.Load(); n >= 10_000 {
		t.Fatalf("dispensing did not stop early (%d tasks ran)", n)
	}
	// Still alive.
	var ran atomic.Int64
	p.Run(32, func(struct{}, int) { ran.Add(1) })
	if ran.Load() != 32 {
		t.Fatalf("%d tasks ran after RunErrCtx stop, want 32", ran.Load())
	}
}

type errBoom struct{}

func (errBoom) Error() string { return "boom" }

// Concurrent submitters' phases must not corrupt each other. (The
// searches submit sequentially, but the pool's contract is stronger.)
func TestRuntimeConcurrentSubmitters(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := New(3, func(w int) *int { return new(int) })
			for round := 0; round < 50; round++ {
				p.Run(20, func(s *int, _ int) { *s++ })
			}
			total := 0
			for _, s := range p.States() {
				total += *s
			}
			if total != 50*20 {
				t.Errorf("submitter ran %d tasks, want 1000", total)
			}
		}()
	}
	wg.Wait()
}

// A task panic re-raised on the submitter leaves nothing behind that a
// fresh pool's phase could trip on — the Session lifecycle after a
// poisoned phase. (The handoff stress test covers repeated panics on
// one Pool.)
func TestRuntimeReuseAcrossPoolsAfterTaskPanic(t *testing.T) {
	for round := 0; round < 20; round++ {
		p := New(4, func(w int) struct{} { return struct{}{} })
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("round %d: task panic did not propagate", round)
				}
			}()
			p.Run(64, func(_ struct{}, task int) {
				if task == 13 {
					panic("poisoned task")
				}
			})
		}()
		// A fresh Pool: a full healthy phase must run.
		q := New(4, func(w int) struct{} { return struct{}{} })
		var ran atomic.Int64
		q.Run(128, func(struct{}, int) { ran.Add(1) })
		if ran.Load() != 128 {
			t.Fatalf("round %d: %d tasks ran after panic, want 128", round, ran.Load())
		}
	}
}

// Every phase waits for its helpers, so none outlives it: after
// normal, panicking, cancelled and failing phases the goroutine count
// returns to its baseline. A helper calls wg.Done just before it
// returns, so the count is polled until the exits land.
func TestPhasesLeaveNoGoroutine(t *testing.T) {
	base := runtime.NumGoroutine()
	for _, workers := range []int{2, 4} {
		p := New(workers, func(int) struct{} { return struct{}{} })
		p.Run(100, func(struct{}, int) {})
		func() {
			defer func() { _ = recover() }()
			p.Run(100, func(_ struct{}, task int) {
				if task == 7 {
					panic("boom")
				}
			})
		}()
		ctx, cancel := context.WithCancel(context.Background())
		_ = p.RunCtx(ctx, 100, func(_ struct{}, task int) {
			if task == 3 {
				cancel()
			}
		})
		cancel()
		if err := p.RunErrCtx(context.Background(), 100, func(_ struct{}, task int) error {
			if task == 5 {
				return errBoom{}
			}
			return nil
		}); err == nil {
			t.Fatalf("workers=%d: RunErrCtx lost its task error", workers)
		}
		_ = ForChunksCtx(context.Background(), workers, 100, 4, func(int, int) {})
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the phases, %d before", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}
