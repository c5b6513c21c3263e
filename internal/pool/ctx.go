package pool

import (
	"context"
	"sync"
)

// Context-aware phase submission. Every primitive in this file follows
// one rule: once ctx is cancelled, no new tasks are dispensed. Tasks
// already running finish normally, the phase barrier releases as usual,
// and the Runtime stays fully reusable — a cancelled phase drains its
// workers back to the parked state instead of wedging them. The
// primitives then report ctx.Err().
//
// The determinism contract is unaffected: with an uncancelled context
// the per-task ctx.Err() probe reads nil and every task runs, so
// results stay bit-identical for every worker count. Under
// cancellation the partial work is discarded by the callers (they
// return the context error), so the schedule-dependence of *which*
// tasks ran before the cut is never observable.
//
// Cancellation granularity is the task: a phase stops between tasks,
// never inside one. Long-running tasks (deep search branches) keep
// their own periodic ctx probes — see the miners — so the latency of a
// cancellation is bounded by a probe interval, not by a whole branch.

// RunCtx is Run with a cancellation cut between tasks: when ctx is
// cancelled, the dispensing of new tasks stops, running tasks finish,
// and ctx.Err() is returned. A nil error means every task ran.
func (p *Pool[S]) RunCtx(ctx context.Context, tasks int, fn func(s S, task int)) error {
	if len(p.states) == 1 {
		for t := 0; t < tasks; t++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			fn(p.states[0], t)
		}
		return ctx.Err()
	}
	p.rt.phase(len(p.states), tasks, func(slot, t int) bool {
		if ctx.Err() != nil {
			return false
		}
		fn(p.states[slot], t)
		return true
	})
	return ctx.Err()
}

// RunErrCtx is RunCtx for fallible tasks. After the first failure no
// new tasks are dispensed (running ones finish), and the error of the
// lowest-indexed failed task among those that ran is returned. Tasks
// are dispensed in index order, so every task below a failed one has
// run: the returned error is the lowest-indexed failure overall, and
// when the failure condition is schedule-independent — ECLAT's
// result-cap overflow trips in every schedule iff the total result
// count exceeds the cap — it is deterministic too. When the context is
// cancelled its error takes precedence over any task error: task errors
// observed mid-cancellation are schedule-dependent, while ctx.Err() is
// not.
func (p *Pool[S]) RunErrCtx(ctx context.Context, tasks int, fn func(s S, task int) error) error {
	var first error
	if len(p.states) == 1 {
		for t := 0; t < tasks && first == nil && ctx.Err() == nil; t++ {
			first = fn(p.states[0], t)
		}
	} else {
		var (
			mu    sync.Mutex
			errAt = -1
		)
		p.rt.phase(len(p.states), tasks, func(slot, t int) bool {
			if ctx.Err() != nil {
				return false
			}
			err := fn(p.states[slot], t)
			if err == nil {
				return true
			}
			mu.Lock()
			if errAt < 0 || t < errAt {
				errAt, first = t, err
			}
			mu.Unlock()
			return false
		})
	}
	if cerr := ctx.Err(); cerr != nil {
		return cerr
	}
	return first
}

// ForChunksCtxOn splits [0, n) into fixed-size chunks and runs fn on
// each, dynamically scheduled on rt (nil means Default) with the
// cancellation cut of RunCtx. Each chunk writes its results in place,
// into its own slots of caller-owned storage, so a round-structured
// caller allocates no per-phase output. The chunk size is the
// caller's constant, never derived from the worker count, so every
// chunk computes the same thing for every worker count. With one worker
// the chunks run inline, in order, with ctx probed before each.
func ForChunksCtxOn(rt *Runtime, ctx context.Context, workers, n, chunk int, fn func(lo, hi int)) error {
	if chunk < 1 {
		chunk = 1
	}
	tasks := (n + chunk - 1) / chunk
	if rt == nil {
		rt = Default()
	}
	rt.phase(Size(workers, tasks), tasks, func(_, t int) bool {
		if ctx.Err() != nil {
			return false
		}
		lo := t * chunk
		fn(lo, min(lo+chunk, n))
		return true
	})
	return ctx.Err()
}
