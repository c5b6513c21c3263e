package core

import (
	"sync"

	"twoview/internal/pool"
)

// Session carries what a whole mining session reuses across its
// calls: candidate mining plus any number of MineExact / MineSelect /
// MineGreedy calls share the round-structured miners' scratch buffers
// through it. Carry it in ParallelOptions.Session and Close it when
// the session is over; a nil Session means each call takes its buffers
// from a package-wide sync.Pool. Every parallel phase starts its own
// helper goroutines (see internal/pool), so a session holds none.
//
// Sessions only change which buffers a call reuses, never what it
// computes: the determinism contract (results bit-identical for every
// worker count) holds with or without one.
type Session struct {
	// scratch recycles the round-structured miners' working buffers
	// (see miningScratch) across the session's mining calls. It is a
	// plain free list, not a sync.Pool, so whether a call gets its
	// buffers back does not depend on where garbage collections fell.
	mu      sync.Mutex
	scratch []*miningScratch
}

// NewSession starts a session with an empty scratch free list.
func NewSession() *Session { return &Session{} }

// Close drops the session's scratch. The session must not be used
// afterwards. Close on a nil Session is a no-op.
func (s *Session) Close() {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.scratch = nil
	s.mu.Unlock()
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
	// of internal/shard: the cover state is partitioned by item range
	// into this many shards that exchange only messages with a
	// coordinator. 0 (the default) runs the in-process cover. Results
	// are bit-identical for every shard count. Only a binary that links
	// internal/shard can set it (the benchmark does; the facade and the
	// commands do not): elsewhere Shards > 0 makes SELECT and GREEDY
	// return an error. MineExact ignores it. ROADMAP item 2 removes it
	// with the engine.
	Shards int
	// ShardAddrs runs the sharded engine's partitions in shardworker
	// daemons (cmd/shardworker) over TCP, placed round-robin over the
	// addresses; Shards defaults to len(ShardAddrs). It needs
	// internal/shard linked in, like Shards, and goes with it.
	ShardAddrs []string
	// Session recycles the miners' scratch across calls; nil means a
	// package-wide pool. See Session.
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
