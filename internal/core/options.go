package core

import (
	"sync"

	"twoview/internal/pool"
)

// Session owns a persistent worker runtime for a whole mining session:
// candidate mining plus any number of MineExact / MineSelect /
// MineGreedy calls submit their parallel phases to one set of
// long-lived, parked workers instead of launching goroutines per round.
// Carry it in ParallelOptions.Session and Close it when the session is
// over; a nil Session means the shared package-wide runtime, which is
// also persistent but never shuts down.
//
// Sessions only change where the work runs, never what it computes:
// the determinism contract (results bit-identical for every worker
// count) holds with or without one.
type Session struct {
	rt *pool.Runtime
	// scratch recycles the round-structured miners' working buffers
	// (see miningScratch) across the session's mining calls. It is a
	// plain free list, not a sync.Pool, so whether a call gets its
	// buffers back does not depend on where garbage collections fell.
	mu      sync.Mutex
	scratch []*miningScratch
}

// NewSession starts a session with its own worker runtime. Workers are
// spawned lazily by the first parallel phase and grow to the largest
// worker count any call requests.
func NewSession() *Session {
	return &Session{rt: pool.NewRuntime()}
}

// Close shuts the session's workers down and drops its scratch. The
// session must not be used afterwards. Close on a nil Session is a
// no-op.
func (s *Session) Close() {
	if s == nil {
		return
	}
	if s.rt != nil {
		s.rt.Close()
	}
	s.mu.Lock()
	s.scratch = nil
	s.mu.Unlock()
}

// runtime resolves the session to a pool runtime (nil-safe).
func (s *Session) runtime() *pool.Runtime {
	if s == nil || s.rt == nil {
		return pool.Default()
	}
	return s.rt
}

// ParallelOptions is the shared concurrency knob embedded by every
// miner's options (ExactOptions, SelectOptions, GreedyOptions) and
// accepted by candidate mining. All parallel paths go through
// internal/pool and honour its determinism contract: results are
// bit-identical for every value of Workers.
type ParallelOptions struct {
	// Workers sets the worker-pool size: 0 means GOMAXPROCS, 1 disables
	// parallelism (no goroutines are spawned). Results are identical
	// regardless of the value.
	Workers int
	// Shards opts SELECT and GREEDY into the supervised sharded engine
	// (internal/shard): the columnar cover state is partitioned by item
	// range into this many shard goroutine groups that exchange only
	// messages with a coordinator — no shared State — with lease-based
	// crash recovery. 0 (the default) runs the monolithic in-process
	// engine; any value >= 1 runs the sharded one (1 still exercises
	// the full message protocol, with a single shard). Results are
	// bit-identical to the monolith for every shard count, worker
	// count, and injected failure schedule. Requires the shard engine
	// to be linked in: importing the twoview facade (or
	// twoview/internal/shard directly) registers it; with neither
	// linked, Shards > 0 is an error. MineExact ignores Shards: EXACT
	// always runs in-process.
	Shards int
	// ShardAddrs lifts the sharded SELECT and GREEDY engine onto TCP:
	// each address is a shardworker daemon (cmd/shardworker) that hosts
	// partitions, dialed and supervised by the coordinator with the
	// same lease-based crash recovery as the in-process engine — a
	// broken or timed-out connection is a crash, redialed with
	// deterministic backoff. Partitions are placed round-robin over the
	// addresses. Empty (the default) keeps every shard in-process. When
	// ShardAddrs is set and Shards is 0, Shards defaults to
	// len(ShardAddrs). Results are bit-identical to the monolith for
	// every placement, connection-failure schedule, and worker count.
	// MineExact ignores ShardAddrs and never dials.
	ShardAddrs []string
	// Session is the persistent worker runtime to run on; nil means the
	// shared package-wide runtime. See Session.
	Session *Session
}

// Parallel returns a ParallelOptions with the given worker count, for
// concise composite literals: ExactOptions{ParallelOptions: Parallel(4)}.
func Parallel(workers int) ParallelOptions {
	return ParallelOptions{Workers: workers}
}

// workerCount resolves Workers against the machine and a task count.
func (o ParallelOptions) workerCount(tasks int) int {
	return pool.Size(o.Workers, tasks)
}

// runtime resolves the session to a pool runtime.
func (o ParallelOptions) runtime() *pool.Runtime { return o.Session.runtime() }
