package pool

import (
	"context"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// Many small phases on one persistent pool: the round-structured shape
// of the searches (SELECT rounds, GREEDY blocks). Every task of every
// phase must run exactly once on the parked workers. Run under -race in
// CI, this also checks the phase barrier publishes worker-state writes.
func TestRuntimeManySmallPhases(t *testing.T) {
	rt := NewRuntime()
	defer rt.Close()
	p := NewOn(rt, 4, func(w int) *int { return new(int) })
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

// Sequential pools on one runtime share its parked workers.
func TestRuntimeSharedAcrossPools(t *testing.T) {
	rt := NewRuntime()
	defer rt.Close()
	for i := 0; i < 10; i++ {
		p := NewOn(rt, 3, func(w int) *[]int { return new([]int) })
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
	if err := ForChunksCtxOn(rt, context.Background(), 4, 100, 8, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			chunks[i] = i
		}
	}); err != nil {
		t.Fatal(err)
	}
	for i, v := range chunks {
		if v != i {
			t.Fatalf("ForChunksCtxOn: chunks[%d] = %d", i, v)
		}
	}
}

// A panic in a task must propagate to the submitting goroutine and must
// not wedge the parked workers: the same runtime keeps executing
// subsequent phases, and the panicking phase's barrier still releases.
func TestRuntimePanicDoesNotWedgeWorkers(t *testing.T) {
	rt := NewRuntime()
	defer rt.Close()
	p := NewOn(rt, 4, func(w int) struct{} { return struct{}{} })

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

		// The runtime must still be fully operational.
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
	rt := NewRuntime()
	defer rt.Close()

	// workers > tasks: every task still runs exactly once.
	p := NewOn(rt, 7, func(w int) *[]int { return new([]int) })
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

// RunErrCtx on the runtime: failures stop dispensing, the runtime
// stays usable, and the phase barrier releases with undispensed tasks
// refunded.
func TestRuntimeRunErrStops(t *testing.T) {
	rt := NewRuntime()
	defer rt.Close()
	p := NewOn(rt, 4, func(w int) struct{} { return struct{}{} })
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

// Concurrent submitters may share one runtime; phases must not corrupt
// each other. (The searches submit sequentially, but the runtime's
// contract is stronger.)
func TestRuntimeConcurrentSubmitters(t *testing.T) {
	rt := NewRuntime()
	defer rt.Close()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := NewOn(rt, 3, func(w int) *int { return new(int) })
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

// Close is idempotent and leaves running work unharmed when called
// after the last phase.
func TestRuntimeCloseIdempotent(t *testing.T) {
	rt := NewRuntime()
	p := NewOn(rt, 2, func(w int) struct{} { return struct{}{} })
	p.Run(10, func(struct{}, int) {})
	rt.Close()
	rt.Close()
}

// Close racing an in-flight phase must not panic or lose tasks: the
// phase stops recruiting helpers and the submitter drains the tasks
// itself. New submissions after Close panic with the pool's own
// message.
func TestRuntimeCloseMidPhase(t *testing.T) {
	rt := NewRuntime()
	p := NewOn(rt, 4, func(w int) struct{} { return struct{}{} })
	var once sync.Once
	var ran atomic.Int64
	p.Run(200, func(_ struct{}, task int) {
		// Close lands while the phase is running (and possibly still
		// recruiting); every task must complete regardless.
		once.Do(rt.Close)
		ran.Add(1)
	})
	if ran.Load() != 200 {
		t.Fatalf("%d tasks ran across Close, want 200", ran.Load())
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("submission after Close did not panic")
		}
		if s, ok := r.(string); !ok || !strings.Contains(s, "closed Runtime") {
			t.Fatalf("unexpected panic %v", r)
		}
	}()
	p.Run(10, func(struct{}, int) {})
}
