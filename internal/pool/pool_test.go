package pool

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"testing"
)

func TestSize(t *testing.T) {
	for _, tc := range []struct{ workers, tasks, min, max int }{
		{1, 100, 1, 1},
		{4, 100, 4, 4},
		{4, 2, 2, 2},             // workers > tasks: capped at tasks
		{7, 3, 3, 3},             // workers > tasks again
		{0, 0, 1, 1},             // tasks == 0: still at least one worker
		{4, 0, 1, 1},             // tasks == 0 with explicit workers
		{1, 0, 1, 1},             // tasks == 0, serial
		{0, 1 << 30, 1, 1 << 30}, // 0 → GOMAXPROCS, whatever it is
		{-3, 5, 1, 5},
	} {
		got := Size(tc.workers, tc.tasks)
		if got < tc.min || got > tc.max {
			t.Errorf("Size(%d, %d) = %d, want in [%d, %d]",
				tc.workers, tc.tasks, got, tc.min, tc.max)
		}
	}
}

func TestMaxRaise(t *testing.T) {
	var m Max
	if m.Load() != 0 {
		t.Fatalf("zero Max loads %v", m.Load())
	}
	m.Raise(1.5)
	m.Raise(0.5) // lower: no effect
	if m.Load() != 1.5 {
		t.Fatalf("Load = %v, want 1.5", m.Load())
	}
	// Concurrent raises settle on the global maximum.
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				m.Raise(float64(w*1000 + i))
			}
		}(w)
	}
	wg.Wait()
	if m.Load() != 7999 {
		t.Fatalf("concurrent max = %v, want 7999", m.Load())
	}
}

func TestCounter(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				c.Add()
			}
		}()
	}
	wg.Wait()
	if c.Load() != 400 {
		t.Fatalf("counter = %d, want 400", c.Load())
	}
}

// Every task must run exactly once, on some worker's own state.
func TestPoolRunCoversAllTasks(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 7} {
		p := New(workers, func(w int) *[]int { return new([]int) })
		p.Run(100, func(s *[]int, task int) { *s = append(*s, task) })
		var all []int
		for _, s := range p.States() {
			all = append(all, *s...)
		}
		sort.Ints(all)
		if len(all) != 100 {
			t.Fatalf("workers=%d: %d tasks ran, want 100", workers, len(all))
		}
		for i, v := range all {
			if v != i {
				t.Fatalf("workers=%d: task %d missing or duplicated", workers, i)
			}
		}
	}
}

// Sequential phases over the same pool share worker states.
func TestPoolPhases(t *testing.T) {
	p := New(3, func(w int) *int { return new(int) })
	p.Run(30, func(s *int, _ int) { *s++ })
	p.Run(12, func(s *int, _ int) { *s++ })
	total := 0
	for _, s := range p.States() {
		total += *s
	}
	if total != 42 {
		t.Fatalf("phase totals = %d, want 42", total)
	}
}

// RunErrCtx on an uncancelled context returns the lowest-indexed
// failure for every worker count, and nil when no task fails.
func TestPoolRunErr(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		p := New(workers, func(w int) struct{} { return struct{}{} })
		err := p.RunErrCtx(context.Background(), 50, func(_ struct{}, task int) error {
			if task >= 10 {
				return taskErr(task)
			}
			return nil
		})
		if err != taskErr(10) {
			t.Fatalf("workers=%d: err = %v, want %v", workers, err, taskErr(10))
		}
		if err := p.RunErrCtx(context.Background(), 20, func(struct{}, int) error { return nil }); err != nil {
			t.Fatalf("workers=%d: unexpected error %v", workers, err)
		}
	}
}

// taskErr is the error of a failed task, comparable by task index.
type taskErr int

func (e taskErr) Error() string { return fmt.Sprintf("task %d failed", int(e)) }
