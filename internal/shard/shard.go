package shard

import (
	"bytes"
	"context"
	"sync"
	"time"

	"twoview/internal/core"
	"twoview/internal/dataset"
	"twoview/internal/mdl"
	"twoview/internal/pool"
	"twoview/internal/wire"
)

// Config sizes one sharded mining run. The zero value of every field
// selects a default; none of the fields influence the mined table.
type Config struct {
	// Shards is the number of item-range partitions, each owned by one
	// shard incarnation; values < 1 mean 1 (a single shard still runs the full
	// message protocol). Results are identical for every value.
	Shards int
	// Workers sets each shard's scoring-pool size, like
	// core.ParallelOptions.Workers: 0 means GOMAXPROCS, 1 disables
	// parallelism inside the shard. Results are identical regardless.
	Workers int
	// Lease is the deadline granted with every dispatched message; a
	// shard that has not completed within it is presumed dead and its
	// partition is rebuilt. 0 means DefaultLease. Too-short leases cost
	// rebuild work, never correctness: a late completion from a
	// replaced incarnation is discarded by term.
	Lease time.Duration
	// MaxRestarts caps partition rebuilds per run; past it the run
	// fails rather than loop on a deterministically crashing shard
	// (e.g. a persistent fault schedule). 0 means DefaultMaxRestarts.
	MaxRestarts int
	// Addrs lifts the engine onto TCP: each address is a shardworker
	// daemon (cmd/shardworker) and partition p is placed on
	// Addrs[p % len(Addrs)]. Empty (the default) runs every shard
	// in-process. The supervision protocol is identical either way; a
	// broken or timed-out connection is one more way for an incarnation
	// to crash.
	Addrs []string
	// RedialBackoff is the base delay before redialing a broken
	// connection; successive failed dials back off deterministically
	// (doubling, capped) — no randomness, so a failure schedule replays
	// identically. 0 means DefaultRedialBackoff.
	RedialBackoff time.Duration
}

// Defaults for Config's zero fields. The lease default is generous: it
// is a liveness failsafe, not a pacing mechanism, and only has to beat
// the longest legitimate phase of a round.
const (
	DefaultLease         = 10 * time.Second
	DefaultMaxRestarts   = 100
	DefaultRedialBackoff = 50 * time.Millisecond
)

// queueDepth is the single backpressure constant of the engine: the
// capacity of every incarnation's mailbox (NewMailbox, in process and
// in cmd/shardworker) and the per-partition budget of the coordinator's
// TCP write queue. A full queue never blocks the
// supervisor and never buffers without bound — the frame is dropped and
// the condition surfaces as lease expiry, the same path as a crash.
const queueDepth = 2

func (c Config) withDefaults() Config {
	if c.Shards < 1 {
		c.Shards = 1
	}
	if c.Lease <= 0 {
		c.Lease = DefaultLease
	}
	if c.MaxRestarts <= 0 {
		c.MaxRestarts = DefaultMaxRestarts
	}
	if c.RedialBackoff <= 0 {
		c.RedialBackoff = DefaultRedialBackoff
	}
	return c
}

// configFrom maps the miner-facing knobs to a shard Config. A non-empty
// address list with Shards left 0 means one partition per address.
func configFrom(par core.ParallelOptions) Config {
	shards := par.Shards
	if shards == 0 && len(par.ShardAddrs) > 0 {
		shards = len(par.ShardAddrs)
	}
	return Config{Shards: shards, Workers: par.Workers, Addrs: par.ShardAddrs}
}

// Partition is one shard's slice of both item alphabets: the items
// [LoL, HiL) of the left view and [LoR, HiR) of the right view. The
// split is by contiguous ascending ranges, so concatenating the
// partitions' per-item messages in partition order walks the full
// alphabet in item order — which is what keeps the coordinator's float
// folds in the monolith's exact accumulation order.
type Partition struct {
	Index    int
	LoL, HiL int
	LoR, HiR int
}

// split partitions both alphabets into n balanced contiguous ranges
// (range p is [p·m/n, (p+1)·m/n)). n may exceed the item count; the
// excess partitions are empty and their shards answer every round with
// empty counts.
func split(d *dataset.Dataset, n int) []Partition {
	mL, mR := d.Items(dataset.Left), d.Items(dataset.Right)
	parts := make([]Partition, n)
	for p := 0; p < n; p++ {
		parts[p] = Partition{
			Index: p,
			LoL:   p * mL / n, HiL: (p + 1) * mL / n,
			LoR: p * mR / n, HiR: (p + 1) * mR / n,
		}
	}
	return parts
}

// runStats counts the supervision events of one run, for the chaos
// suite to assert that recovery actually fired.
type runStats struct {
	// restarts is the number of partition rebuilds (crash notices,
	// blown leases).
	restarts int
	// stale is the number of discarded completions: duplicates,
	// reorders, and messages from replaced incarnations.
	stale int

	// TCP transport counters; all zero for in-process runs.

	// dials is the number of established worker connections; redials is
	// how many of them replaced a broken one.
	dials, redials int
	// blobsSent counts dataset/candidate transfers the HELLO negotiation
	// actually performed; cacheHits counts the HELLOs a worker answered
	// entirely from its content-hash cache.
	blobsSent, cacheHits int

	// requested holds, per masked SCORE round (one per SELECT round),
	// the number of (candidate, consequent item) pairs it asked every
	// shard to count: how much work SELECT's scoring cache saves.
	requested []int
}

// run is the per-mining-call context shared by the supervisor and every
// shard incarnation: the immutable inputs (dataset, coder, candidates)
// and the private worker runtime all shard scoring phases park on.
type run struct {
	d     *dataset.Dataset
	coder *mdl.Coder
	cands []core.Candidate
	cfg   Config
	// workers is the resolved per-shard scoring pool size.
	workers int
	rt      *pool.Runtime
	sv      *supervisor
	// wg tracks every goroutine the run ever spawned, so close can wait
	// for them all before releasing the worker runtime.
	wg sync.WaitGroup

	// Reused coordinator-side merge scratch: the partitions' count
	// slices of the entry being folded, in partition order.
	fwdParts, backParts [][]core.ItemCount
	// requested feeds runStats.requested.
	requested []int

	// Content-addressed transfer blobs of the TCP transport, computed
	// once per run (empty for in-process runs): the dataset in its text
	// serialization and the candidate list in wire encoding, each with
	// the SHA-256 a HELLO announces.
	datasetBlob []byte
	datasetHash wire.Hash
	candsBlob   []byte
	candsHash   wire.Hash
}

// newRun builds the engine for one mining call: resolves the config,
// materializes the shared read-only structures (the column caches must
// exist before shard goroutines read them concurrently), and starts the
// supervisor with its initial incarnations.
func newRun(ctx context.Context, d *dataset.Dataset, cands []core.Candidate, cfg Config) *run {
	cfg = cfg.withDefaults()
	d.Columns(dataset.Left)
	d.Columns(dataset.Right)
	r := &run{
		d:       d,
		coder:   mdl.NewCoder(d),
		cands:   cands,
		cfg:     cfg,
		workers: pool.Size(cfg.Workers, 1<<30),
		rt:      pool.NewRuntime(),
	}
	r.fwdParts = make([][]core.ItemCount, cfg.Shards)
	r.backParts = make([][]core.ItemCount, cfg.Shards)
	if len(cfg.Addrs) > 0 {
		var buf bytes.Buffer
		if err := dataset.Write(&buf, d); err != nil {
			// The text serializer only fails on writer errors, which a
			// bytes.Buffer never produces.
			panic(err)
		}
		r.datasetBlob = buf.Bytes()
		r.datasetHash = wire.HashBytes(r.datasetBlob)
		if len(cands) > 0 {
			r.candsBlob = wire.AppendCandidates(nil, cands)
			r.candsHash = wire.HashBytes(r.candsBlob)
		}
	}
	r.sv = newSupervisor(ctx, r)
	return r
}

// close tears the run down: cancel every shard, wait for their
// goroutines to drain, then release the worker runtime.
func (r *run) close() {
	r.sv.close()
	r.wg.Wait()
	r.rt.Close()
}

func (r *run) stats() *runStats {
	rs := &runStats{restarts: r.sv.restarts, stale: r.sv.stale, requested: r.requested}
	r.sv.tr.stats(rs)
	return rs
}

// applyRule runs an APPLY round for an accepted rule and folds the
// acknowledgements into the coordinator's scalar totals, in partition
// order.
func applyRule(r *run, totals *core.CoverTotals, rule core.Rule) error {
	reps, err := r.sv.apply(rule)
	if err != nil {
		return err
	}
	for p, rep := range reps {
		r.fwdParts[p] = rep.Counts[0].Fwd
		r.backParts[p] = rep.Counts[0].Back
	}
	totals.Apply(rule, r.fwdParts, r.backParts)
	return nil
}
