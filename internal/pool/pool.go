// Package pool is the single worker-pool abstraction behind every
// parallel search in this repository: the TRANSLATOR-EXACT
// branch-and-bound, TRANSLATOR-SELECT scoring,
// TRANSLATOR-GREEDY block scoring, and the ECLAT candidate walk.
//
// # Persistent runtime
//
// All parallel execution happens on a Runtime: a set of long-lived
// worker goroutines parked on a run queue. Pool.Run, Pool.RunCtx,
// Pool.RunErrCtx and ForChunksCtxOn are *phases* — batches of dynamically
// scheduled tasks — submitted to an already-running Runtime, so the
// round-structured searches (SELECT rescores its candidates each
// round, GREEDY scores block after block, EXACT runs a seed and a DFS
// phase per added rule) pay one wake-all broadcast per phase instead of
// a goroutine launch per worker per phase. Parked workers also keep their
// grown stacks, which the deeply recursive searches would otherwise
// re-grow on every fresh goroutine.
//
// A lazily started package-wide Runtime (Default) serves callers that
// do not manage one; long mining sessions can own a private Runtime
// (see core.Session) and Close it when done.
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
//   - each task writes only its own chunk (ForChunksCtxOn) or its own
//     worker-local state (Pool), so no result depends on cross-worker
//     timing;
//   - cross-worker communication is restricted to monotone values (Max,
//     Counter) that callers may only use in ways that are insensitive to
//     the order of updates — e.g. pruning thresholds that are strict
//     lower bounds on what must still be visited.
//
// Scheduling is dynamic (workers pull task indices from a shared
// counter), because search-tree branch costs are heavily skewed;
// dynamic assignment changes only *which worker* runs a task, which the
// rules above make unobservable.
//
// # Cancellation
//
// Every phase primitive but Run takes a context (RunCtx, RunErrCtx,
// ForChunksCtxOn — see ctx.go): cancelling it stops the dispensing of
// new tasks, drains the running ones, and returns ctx.Err(), leaving
// the Runtime parked and reusable. Run is RunCtx on the background
// context.
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

// Runtime is a persistent set of parked worker goroutines fed by a run
// queue. Workers are spawned lazily, on the first phase that needs
// them, and grow to the largest concurrency any phase has requested;
// between phases they park on a condition variable guarded by a
// generation counter, costing nothing. A Runtime is safe for concurrent
// use; phases submitted concurrently share the workers.
//
// Phase handoff is wake-all, not per-worker: the submitter appends its
// job to the pending queue, bumps the generation, and issues a single
// Broadcast; every parked worker wakes and claims a helper slot from
// the queue under the lock. Compared to the previous per-worker channel
// rendezvous this makes submission cost independent of the helper count
// — one lock acquisition and one futex wake for the whole phase instead
// of `helpers` synchronous channel sends — which is what the
// round-structured searches pay per round.
//
// The zero Runtime is not usable; use NewRuntime, or Default for the
// shared package-wide instance.
type Runtime struct {
	mu      sync.Mutex
	wake    sync.Cond   // workers park here; L is &mu
	gen     uint64      // bumped on every announce and on Close
	pending []*phaseJob // phases with unclaimed helper slots, FIFO

	spawned int  // background workers launched so far
	demand  int  // helpers wanted by phases currently in flight
	closed  bool // no further submissions allowed
}

// NewRuntime returns a new, empty runtime. Workers are spawned on
// demand by the phases submitted to it. Call Close when no more phases
// will be submitted; the package Default runtime is never closed.
func NewRuntime() *Runtime {
	rt := &Runtime{}
	rt.wake.L = &rt.mu
	return rt
}

var (
	defaultOnce sync.Once
	defaultRT   *Runtime
)

// Default returns the shared package-wide runtime, starting it on first
// use. It is never closed; its workers park between phases.
func Default() *Runtime {
	defaultOnce.Do(func() { defaultRT = NewRuntime() })
	return defaultRT
}

// Close shuts the runtime down: parked workers exit, and submitting a
// new phase panics. Close is idempotent and safe against in-flight
// phases: a phase racing Close keeps its claimed helpers, loses its
// unclaimed ones (workers check closed before claiming), and finishes
// the remaining tasks on the submitting goroutine.
func (rt *Runtime) Close() {
	rt.mu.Lock()
	if !rt.closed {
		rt.closed = true
		rt.gen++
	}
	rt.mu.Unlock()
	rt.wake.Broadcast()
}

// announce registers a phase's helper demand, grows the worker set to
// cover the demand of every phase in flight (so concurrent submitters
// never compete for the same parked workers), enqueues the job, and
// wakes all parked workers with a single Broadcast. Parked workers are
// never torn down between phases (that is the point of the runtime), so
// spawned only grows, up to the peak concurrent demand.
func (rt *Runtime) announce(j *phaseJob, helpers int) {
	rt.mu.Lock()
	if rt.closed {
		rt.mu.Unlock()
		panic("pool: phase submitted to a closed Runtime")
	}
	rt.demand += helpers
	for rt.spawned < rt.demand {
		rt.spawned++
		go rt.worker()
	}
	rt.pending = append(rt.pending, j)
	rt.gen++
	rt.mu.Unlock()
	rt.wake.Broadcast()
}

// retract returns a phase's helper demand after its barrier and
// withdraws the job's unclaimed helper slots, if any: when the
// submitter finished every task before all helpers woke (tiny phases),
// the job must not linger on the queue for a later worker to claim.
func (rt *Runtime) retract(j *phaseJob, helpers int) {
	rt.mu.Lock()
	rt.demand -= helpers
	if j.claims > 0 {
		j.claims = 0
		for i, p := range rt.pending {
			if p == j {
				last := len(rt.pending) - 1
				rt.pending[i] = rt.pending[last]
				rt.pending[last] = nil
				rt.pending = rt.pending[:last]
				break
			}
		}
	}
	rt.mu.Unlock()
}

// claimLocked takes one helper slot from the oldest pending phase,
// dropping the phase from the queue when its last slot is claimed.
// Callers hold rt.mu.
func (rt *Runtime) claimLocked() *phaseJob {
	if len(rt.pending) == 0 {
		return nil
	}
	j := rt.pending[0]
	j.claims--
	if j.claims == 0 {
		copy(rt.pending, rt.pending[1:])
		last := len(rt.pending) - 1
		rt.pending[last] = nil
		rt.pending = rt.pending[:last]
	}
	return j
}

// worker is the body of one persistent background worker: claim a
// helper slot from the pending queue, execute a share of that phase,
// and park on the generation counter when the queue is empty. The
// park loop re-reads gen under the lock after the queue was seen empty,
// so an announce (which bumps gen under the same lock before
// broadcasting) can never be missed — the classic lost-wakeup pattern.
func (rt *Runtime) worker() {
	rt.mu.Lock()
	for {
		for !rt.closed {
			j := rt.claimLocked()
			if j == nil {
				break
			}
			rt.mu.Unlock()
			j.run()
			rt.mu.Lock()
		}
		if rt.closed {
			rt.mu.Unlock()
			return
		}
		gen := rt.gen
		for rt.gen == gen && !rt.closed {
			rt.wake.Wait()
		}
	}
}

// phase executes fn(slot, t) for every t in [0, tasks) with up to
// `slots` concurrent executors: the calling goroutine plus at most
// slots-1 recruited workers. Task indices are dispensed dynamically;
// slot indices in [0, slots) identify executors, not fixed workers. A
// task returning false stops the dispensing of new tasks (running ones
// finish). phase returns when every dispensed task has finished — a
// barrier, so consecutive phases are sequential and their writes are
// visible to each other. A panic in a task cancels the phase and is
// re-raised on the calling goroutine; the runtime's workers survive.
//
// With slots <= 1 (or a single task) the phase runs inline on the
// calling goroutine: genuinely serial, no goroutines, no atomics.
func (rt *Runtime) phase(slots, tasks int, fn func(slot, task int) bool) {
	if tasks <= 0 {
		return
	}
	if fault.Enabled {
		// Chaos builds only (-tags faultinject; compiled away otherwise):
		// scripted failpoints at phase submission and around individual
		// tasks, so tests can inject a slow handoff or a panicking task
		// and assert the drain/re-raise/reuse contract under -race. Which
		// task a scheduled "pool.task" action lands on is
		// schedule-dependent by design — recovery must hold wherever it
		// strikes.
		fault.Fire("pool.phase.submit")
		inner := fn
		fn = func(slot, task int) bool {
			fault.Fire("pool.task")
			return inner(slot, task)
		}
	}
	helpers := slots - 1
	if helpers > tasks-1 {
		helpers = tasks - 1
	}
	if helpers <= 0 {
		for t := 0; t < tasks; t++ {
			if !fn(0, t) {
				return
			}
		}
		return
	}
	j := &phaseJob{fn: fn, tasks: tasks, slots: int32(helpers + 1), claims: helpers}
	j.wg.Add(tasks)
	// One announce wakes every parked worker; announce guarantees
	// enough workers exist for every phase in flight, so the job's
	// helper slots are claimed promptly. If the runtime is closed
	// mid-phase, unclaimed slots are abandoned and the submitter
	// finishes the tasks itself (the per-task barrier does not count
	// helpers, so it releases regardless of how many claimed).
	rt.announce(j, helpers)
	j.run()
	j.wg.Wait()
	rt.retract(j, helpers)
	if p := j.panicked.Load(); p != nil {
		panic(p.val)
	}
}

// phaseJob is one submitted phase. Completion is tracked per task: the
// WaitGroup starts at `tasks`, every finished task decrements it, and
// stop refunds the tasks that will never be dispensed, so the barrier
// in phase releases exactly when all dispensed work is done.
type phaseJob struct {
	fn     func(slot, task int) bool
	tasks  int
	slots  int32
	claims int // unclaimed helper slots; guarded by the Runtime's mu

	nextTask atomic.Int64 // tasks dispensed so far (may overshoot)
	nextSlot atomic.Int32
	wg       sync.WaitGroup
	stopOnce sync.Once
	panicked atomic.Pointer[panicValue]
}

type panicValue struct{ val any }

// stopCutoff is added to nextTask on stop; it exceeds any real task
// count, so every subsequent pull sees an exhausted phase.
const stopCutoff = int64(1) << 40

// stop cancels the dispensing of new tasks and refunds the undispensed
// ones to the completion barrier. Tasks already running finish and
// account for themselves.
func (j *phaseJob) stop() {
	j.stopOnce.Do(func() {
		dispensed := j.nextTask.Swap(stopCutoff)
		if dispensed < int64(j.tasks) {
			j.wg.Add(-(j.tasks - int(dispensed)))
		}
	})
}

// run is one executor's share of the phase: claim a slot, pull tasks
// until exhausted or stopped. Executors beyond the slot budget (which
// cannot happen with claim-counted recruitment, but is guarded anyway)
// do not participate. A panicking task records the first panic, cancels the
// phase, and leaves the executing worker healthy.
func (j *phaseJob) run() {
	slot := int(j.nextSlot.Add(1)) - 1
	if slot >= int(j.slots) {
		return
	}
	defer func() {
		if p := recover(); p != nil {
			j.panicked.CompareAndSwap(nil, &panicValue{val: p})
			j.stop()
			j.wg.Done() // the panicked task was dispensed but never finished
		}
	}()
	for {
		// Compare in int64: after stop() the counter holds stopCutoff,
		// which must not be truncated into a small valid index on
		// 32-bit platforms.
		t64 := j.nextTask.Add(1) - 1
		if t64 >= int64(j.tasks) {
			return
		}
		keep := j.fn(slot, int(t64))
		j.wg.Done()
		if !keep {
			j.stop()
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
// total order. The phases execute on the pool's Runtime; worker states
// are handed to whichever executor claims the matching slot, which the
// determinism rules make unobservable.
//
// With one worker every phase executes inline on the calling goroutine,
// so Workers==1 is genuinely serial (no goroutines, no atomics beyond
// the task counter).
type Pool[S any] struct {
	rt     *Runtime
	states []S
}

// New builds a pool of `workers` states on the Default runtime, each
// state created by mk (called with the worker index, in order, on the
// calling goroutine).
func New[S any](workers int, mk func(w int) S) *Pool[S] {
	return NewOn[S](nil, workers, mk)
}

// NewOn is New on an explicit runtime; rt == nil means Default.
func NewOn[S any](rt *Runtime, workers int, mk func(w int) S) *Pool[S] {
	if workers < 1 {
		workers = 1
	}
	if rt == nil {
		rt = Default()
	}
	states := make([]S, workers)
	for w := range states {
		states[w] = mk(w)
	}
	return &Pool[S]{rt: rt, states: states}
}

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
