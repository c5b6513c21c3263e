package pool

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// An unexpired lease is an uncancelled context: the phase runs every
// task, each writing its own slot.
func TestLeaseUnexpiredRunsAllTasks(t *testing.T) {
	rt := NewRuntime()
	defer rt.Close()
	l := NewLease(context.Background(), time.Hour)
	defer l.End()

	got := make([]int, 64)
	err := ForChunksCtxOn(rt, l.Context(), 4, len(got), 1, func(i, _ int) { got[i] = i * i })
	if err != nil {
		t.Fatalf("unexpired lease: err = %v", err)
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("slot %d = %d, want %d", i, v, i*i)
		}
	}
	if l.Expired() {
		t.Fatal("lease expired without its deadline passing")
	}
}

// A blown lease stops the dispensing of new tasks and surfaces as
// context.DeadlineExceeded; the runtime stays parked and reusable.
func TestLeaseExpiryStopsDispensing(t *testing.T) {
	rt := NewRuntime()
	defer rt.Close()
	l := NewLease(context.Background(), time.Millisecond)

	var ran atomic.Int64
	const tasks = 1 << 20
	err := ForChunksCtxOn(rt, l.Context(), 2, tasks, 1, func(int, int) {
		ran.Add(1)
		time.Sleep(200 * time.Microsecond) // ensure the deadline lands mid-phase
	})
	l.End()
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired lease: err = %v, want DeadlineExceeded", err)
	}
	if !l.Expired() || !errors.Is(l.Err(), context.DeadlineExceeded) {
		t.Fatalf("Expired/Err out of sync: expired=%v err=%v", l.Expired(), l.Err())
	}
	if n := ran.Load(); n == tasks {
		t.Fatal("every task ran despite the blown lease")
	}

	// The drained runtime must accept the next phase as if nothing
	// happened.
	ran.Store(0)
	err = ForChunksCtxOn(rt, context.Background(), 2, 8, 1, func(int, int) { ran.Add(1) })
	if err != nil || ran.Load() != 8 {
		t.Fatalf("runtime unusable after blown lease: %d of 8 tasks ran, err %v", ran.Load(), err)
	}
}

// End invalidates the lease immediately, before any deadline.
func TestLeaseEndInvalidates(t *testing.T) {
	l := NewLease(context.Background(), time.Hour)
	l.End()
	if !l.Expired() {
		t.Fatal("ended lease still authorizes work")
	}
	l.End() // idempotent
}
