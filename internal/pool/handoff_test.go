package pool

// Stress tests and benchmarks for the phase handoff: starting a
// phase's helpers, dispensing its tasks and waiting for the helpers at
// its barrier. A task run twice or never shows as a wrong total; a
// helper the barrier never sees exit shows as a test-binary timeout;
// the -race runs in CI also check the shared dispensing counter.

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// Thousands of tiny phases from concurrent submitters: the worst case
// for handoff, every phase pays the full start/dispense/wait round
// trip. Every task of every phase must run exactly once.
func TestHandoffStressTinyPhases(t *testing.T) {
	const (
		submitters = 4
		rounds     = 2000
	)
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			p := New(3, func(w int) *int { return new(int) })
			want := 0
			for round := 0; round < rounds; round++ {
				tasks := 1 + (g+round)%3
				want += tasks
				p.Run(tasks, func(s *int, _ int) { *s++ })
			}
			got := 0
			for _, s := range p.States() {
				got += *s
			}
			if got != want {
				t.Errorf("submitter %d: ran %d tasks, want %d", g, got, want)
			}
		}(g)
	}
	wg.Wait()
}

// Panicking and context-cancelled phases interleaved with healthy ones
// on one pool: neither may wedge an executor or leave a later phase
// short of a task.
func TestHandoffStressPanicAndCancel(t *testing.T) {
	p := New(4, func(w int) struct{} { return struct{}{} })
	for round := 0; round < 200; round++ {
		switch round % 3 {
		case 0: // healthy phase
			var ran atomic.Int64
			p.Run(16, func(struct{}, int) { ran.Add(1) })
			if ran.Load() != 16 {
				t.Fatalf("round %d: %d tasks ran, want 16", round, ran.Load())
			}
		case 1: // panicking phase
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("round %d: panic did not propagate", round)
					}
				}()
				p.Run(32, func(_ struct{}, task int) {
					if task == 7 {
						panic("handoff stress boom")
					}
				})
			}()
		case 2: // cancelled phase
			ctx, cancel := context.WithCancel(context.Background())
			err := p.RunCtx(ctx, 64, func(_ struct{}, task int) {
				if task == 3 {
					cancel()
				}
			})
			cancel()
			if err != context.Canceled {
				t.Fatalf("round %d: RunCtx = %v, want context.Canceled", round, err)
			}
		}
	}
}

// Sequential pools with full drains in between (the Session lifecycle:
// mine, idle, mine again) run every task of every phase.
func TestHandoffRuntimeReuse(t *testing.T) {
	for session := 0; session < 20; session++ {
		p := New(4, func(w int) *int { return new(int) })
		for round := 0; round < 20; round++ {
			p.Run(8, func(s *int, _ int) { *s++ })
		}
		total := 0
		for _, s := range p.States() {
			total += *s
		}
		if total != 20*8 {
			t.Fatalf("session %d: ran %d tasks, want 160", session, total)
		}
	}
}

// BenchmarkPhaseHandoff measures the cost of one empty phase — start
// the helpers, dispense, wait at the barrier — with zero-work tasks, so
// the number is pure handoff overhead. One task per slot starts every
// helper.
func BenchmarkPhaseHandoff(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			p := New(workers, func(w int) struct{} { return struct{}{} })
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.Run(workers, func(struct{}, int) {})
			}
		})
	}
}
