// Package pool is the single worker-pool abstraction behind every
// parallel search in this repository: the TRANSLATOR-EXACT
// branch-and-bound, TRANSLATOR-SELECT scoring,
// TRANSLATOR-GREEDY block scoring, and the ECLAT candidate walk.
//
// # Phases
//
// All parallel execution happens in *phases*: batches of dynamically
// scheduled tasks submitted by Pool.Run, Pool.RunCtx, Pool.RunErrCtx
// and ForChunksCtx. A phase with more than one slot and more than one
// task starts its own helper goroutines, min(slots, tasks) − 1 of them,
// runs its share on the calling goroutine, and returns once every
// helper has exited. Nothing outlives a phase: no goroutine is parked
// between phases and there is nothing to close, so a phase leaves the
// process (or a testing/synctest bubble) as it found it. With one slot
// or one task the phase runs inline on the caller.
//
// # Determinism contract
//
// All primitives share one determinism contract: the values a caller
// observes are bit-identical for every worker count, including 1.
// The contract rests on three rules that every primitive enforces:
//
//   - work is partitioned by *task index*, never by worker, and any
//     task-level chunking uses sizes fixed by the caller, so the set of
//     per-task computations (and their floating-point evaluation order)
//     does not depend on the number of workers;
//   - each task writes only its own chunk (ForChunksCtx) or its own
//     worker-local state (Pool), so no result depends on cross-worker
//     timing;
//   - cross-worker communication is restricted to monotone values (Max,
//     Counter) that callers may only use in ways that are insensitive to
//     the order of updates — e.g. pruning thresholds that are strict
//     lower bounds on what must still be visited.
//
// Scheduling is dynamic (executors pull task indices from a shared
// counter), because search-tree branch costs are heavily skewed;
// dynamic assignment changes only *which executor* runs a task, which
// the rules above make unobservable.
//
// # Cancellation
//
// Every phase primitive but Run takes a context (RunCtx, RunErrCtx,
// ForChunksCtx — see ctx.go): cancelling it stops the dispensing of
// new tasks, drains the running ones, and returns ctx.Err(). Run is
// RunCtx on the background context.
package pool

import (
	"context"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"twoview/internal/fault"
)

// Size resolves a Workers knob against the machine and the task count:
// 0 means GOMAXPROCS, and the result never exceeds tasks (there is no
// point in idle workers) nor falls below 1.
func Size(workers, tasks int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > tasks {
		workers = tasks
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// phase executes fn(slot, t) for every t in [0, tasks) with up to
// `slots` concurrent executors: the calling goroutine (slot 0) plus
// min(slots, tasks) − 1 helper goroutines started for this phase. Task
// indices are dispensed dynamically; a slot identifies an executor, not
// a task. A task returning false stops the dispensing of new tasks
// (running ones finish). phase returns when every helper has exited —
// a barrier, so consecutive phases are sequential and their writes are
// visible to each other. The first panic in a task stops the phase and
// is re-raised on the calling goroutine after the barrier.
//
// With slots <= 1 (or a single task) the phase runs inline on the
// calling goroutine: genuinely serial, no goroutines, no atomics.
func phase(slots, tasks int, fn func(slot, task int) bool) {
	if tasks <= 0 {
		return
	}
	if fault.Enabled {
		// Chaos builds only (-tags faultinject; compiled away otherwise):
		// scripted failpoints at phase submission and around individual
		// tasks, so tests can inject a slow handoff or a panicking task
		// and assert the drain/re-raise contract under -race. Which task
		// a scheduled "pool.task" action lands on is schedule-dependent
		// by design — recovery must hold wherever it strikes.
		fault.Fire("pool.phase.submit")
		inner := fn
		fn = func(slot, task int) bool {
			fault.Fire("pool.task")
			return inner(slot, task)
		}
	}
	helpers := min(slots, tasks) - 1
	if helpers <= 0 {
		for t := 0; t < tasks; t++ {
			if !fn(0, t) {
				return
			}
		}
		return
	}
	j := &phaseJob{fn: fn, tasks: int64(tasks)}
	var wg sync.WaitGroup
	wg.Add(helpers)
	for slot := 1; slot <= helpers; slot++ {
		go func() {
			defer wg.Done()
			j.run(slot)
		}()
	}
	j.run(0)
	wg.Wait()
	if p := j.panicked.Load(); p != nil {
		panic(p.val)
	}
}

// phaseJob is the state one phase's executors share.
type phaseJob struct {
	fn       func(slot, task int) bool
	tasks    int64
	nextTask atomic.Int64 // tasks dispensed so far (may overshoot)
	panicked atomic.Pointer[panicValue]
}

type panicValue struct{ val any }

// stopCutoff is stored in nextTask on stop; it exceeds any real task
// count, so every subsequent pull sees an exhausted phase.
const stopCutoff = int64(1) << 40

// run is one executor's share of the phase: pull tasks until they are
// exhausted or the phase stops. A panicking task records the first
// panic and stops the phase.
func (j *phaseJob) run(slot int) {
	defer func() {
		if p := recover(); p != nil {
			j.panicked.CompareAndSwap(nil, &panicValue{val: p})
			j.nextTask.Store(stopCutoff)
		}
	}()
	// Compare in int64: after a stop the counter holds stopCutoff, which
	// must not be truncated into a small valid index on 32-bit
	// platforms.
	for t := j.nextTask.Add(1) - 1; t < j.tasks; t = j.nextTask.Add(1) - 1 {
		if !j.fn(slot, int(t)) {
			j.nextTask.Store(stopCutoff)
			return
		}
	}
}

// Max publishes a monotonically increasing non-negative float64 across
// workers as the bit pattern of an atomic uint64. Non-negative IEEE-754
// values order exactly like their unsigned bit patterns, which makes the
// compare-and-swap loop in Raise correct without locks.
//
// The searches use it for the incumbent best gain: pruning against a
// threshold that any worker may raise at any time stays deterministic
// as long as pruning is *strict* (bound < threshold), because then a
// late update can only skip subtrees that cannot change the champion.
type Max struct{ bits atomic.Uint64 }

// Load returns the current maximum (0 before any Raise).
func (m *Max) Load() float64 { return math.Float64frombits(m.bits.Load()) }

// Raise lifts the published value to at least v (monotone CAS max).
// v must be non-negative.
func (m *Max) Raise(v float64) {
	for {
		old := m.bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if m.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Reset drops the published value back to 0, for reusing one Max across
// sequential searches (e.g. the per-iteration best-rule searches of one
// mining session). It must not race with Raise or Load; the phase
// barrier between searches provides that.
func (m *Max) Reset() { m.bits.Store(0) }

// Counter is a shared monotone event counter (e.g. results emitted so
// far across all workers). Deterministic uses are limited to threshold
// tests whose outcome does not depend on which worker contributed which
// increment — such as "abort once more than N results exist", where the
// abort fires in every schedule iff the total exceeds N.
type Counter struct{ n atomic.Int64 }

// Add increments the counter by one and returns the new total.
func (c *Counter) Add() int64 { return c.n.Add(1) }

// Load returns the current total.
func (c *Counter) Load() int64 { return c.n.Load() }

// Pool runs phases of dynamically-scheduled tasks over a fixed set of
// per-worker states. It is the shape used by searches that accumulate a
// champion or a result list per worker and merge afterwards: build the
// pool once, run one or more task phases, then fold States() under a
// total order. Each phase hands state w to its executor in slot w,
// which the determinism rules make unobservable.
//
// With one worker every phase executes inline on the calling goroutine,
// so Workers==1 is genuinely serial (no goroutines, no atomics).
type Pool[S any] struct {
	states []S
}

// New builds a pool of `workers` states, each created by mk (called
// with the worker index, in order, on the calling goroutine).
func New[S any](workers int, mk func(w int) S) *Pool[S] {
	states := make([]S, max(workers, 1))
	for w := range states {
		states[w] = mk(w)
	}
	return &Pool[S]{states: states}
}

// Runtime, NewRuntime and NewOn are a shim for the one caller outside
// this module that still names them: perfbench's poolLayer, which
// times empty phases on a Runtime. Phases own their goroutines, so the
// Runtime holds nothing. The shim goes with ROADMAP item 1, the next
// change to perfbench.
type Runtime struct{}

// NewRuntime returns an empty Runtime (see the shim note on Runtime).
func NewRuntime() *Runtime { return &Runtime{} }

// Close does nothing (see the shim note on Runtime).
func (*Runtime) Close() {}

// NewOn is New (see the shim note on Runtime).
func NewOn[S any](_ *Runtime, workers int, mk func(w int) S) *Pool[S] { return New(workers, mk) }

// States returns the per-worker states in worker order, for merging
// after the phases have run. The order is deterministic, but callers
// must merge under a total order anyway: which tasks ran on which
// worker is schedule-dependent.
func (p *Pool[S]) States() []S { return p.states }

// Run executes fn(state, task) for every task in [0, tasks), pulling
// task indices dynamically. It returns when all tasks have finished
// (a barrier), so consecutive Run calls form sequential phases over the
// same worker states. It is RunCtx on the background context (whose
// Err probe is a constant nil), so the two share one body.
func (p *Pool[S]) Run(tasks int, fn func(s S, task int)) {
	p.RunCtx(context.Background(), tasks, fn)
}
