//go:build faultinject

package pool

import (
	"context"
	"testing"

	"twoview/internal/fault"
)

// A one-worker pool runs its phases inline, but through the same phase
// as every other worker count, so the pool.phase.submit and pool.task
// failpoints fire there too: a task panic scheduled on the third task
// reaches the caller of RunCtx and RunErrCtx after two tasks ran, and
// the pool runs a clean phase in full afterwards.
func TestChaosSerialTaskPanicReachesCaller(t *testing.T) {
	defer fault.Reset()
	for _, tc := range []struct {
		name string
		run  func(p *Pool[*int], tasks int) error
	}{
		{"RunCtx", func(p *Pool[*int], tasks int) error {
			return p.RunCtx(context.Background(), tasks, func(s *int, _ int) { *s++ })
		}},
		{"RunErrCtx", func(p *Pool[*int], tasks int) error {
			return p.RunErrCtx(context.Background(), tasks, func(s *int, _ int) error { *s++; return nil })
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fault.Reset()
			ran := 0
			p := New(1, func(int) *int { return &ran })
			fault.Set("pool.task", fault.Action{Skip: 2, Panic: "chaos: poisoned task"})
			var got any
			func() {
				defer func() { got = recover() }()
				_ = tc.run(p, 5)
			}()
			if got != "chaos: poisoned task" {
				t.Fatalf("recovered %v, want the injected task panic", got)
			}
			if ran != 2 {
				t.Fatalf("%d tasks ran before the panic, want 2", ran)
			}
			if n := fault.Hits("pool.phase.submit"); n != 1 {
				t.Fatalf("pool.phase.submit fired %d times, want 1", n)
			}

			fault.Reset()
			ran = 0
			if err := tc.run(p, 5); err != nil {
				t.Fatal(err)
			}
			if ran != 5 {
				t.Fatalf("clean phase after the panic ran %d tasks, want 5", ran)
			}
		})
	}
}
