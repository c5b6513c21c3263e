package pool

import (
	"context"
	"time"
)

// Lease bounds phase work with a deadline: it derives a
// deadline-carrying context whose expiry stops the dispensing of new
// tasks exactly like an explicit cancellation (see ctx.go), so a phase
// run under a lease can never hold its workers past the grant. It is
// the worker-side half of the shard supervisor's lease protocol
// (internal/shard): the supervisor grants a lease with each dispatched
// message, the shard runs its scoring phases under Lease.Context, and
// a shard that cannot finish in time drains its own phase and reports
// failure instead of wedging — while the supervisor independently
// detects the blown lease and rebuilds the partition.
//
// Determinism is unaffected in the usual way: an unexpired lease is an
// uncancelled context, under which the ctx-aware primitives run every
// task; an expired lease surfaces as
// context.DeadlineExceeded and the caller discards the partial work.
type Lease struct {
	ctx    context.Context
	cancel context.CancelFunc
}

// NewLease grants a lease of duration d under parent. Call End when the
// leased work is finished (expired or not) to release the timer.
func NewLease(parent context.Context, d time.Duration) Lease {
	ctx, cancel := context.WithTimeout(parent, d)
	return Lease{ctx: ctx, cancel: cancel}
}

// Context returns the lease's deadline-bounded context, for the ctx
// phase primitives (RunCtx, RunErrCtx, ForChunksCtxOn).
func (l Lease) Context() context.Context { return l.ctx }

// Expired reports whether the lease can no longer authorize work:
// its deadline passed, its End was called, or its parent was cancelled.
func (l Lease) Expired() bool { return l.ctx.Err() != nil }

// Err returns the lease context's error: nil while the lease is live,
// context.DeadlineExceeded once the grant ran out, or the parent's
// cancellation error.
func (l Lease) Err() error { return l.ctx.Err() }

// End releases the lease's timer resources and invalidates it. Safe to
// call more than once.
func (l Lease) End() { l.cancel() }
