package core

import (
	"context"
	"errors"

	"twoview/internal/dataset"
)

// ShardMiner is the supervised sharded mining engine behind
// ParallelOptions.Shards. The implementation lives in internal/shard,
// which core cannot import (shard builds on core), so the engine is
// injected: internal/shard registers itself in an init function, and
// linking it in — the twoview facade and both CLIs blank-import it —
// arms the knob. The engine provides its own EXACT search and, for
// SELECT and GREEDY, a Cover that core's drivers mine against. It
// receives the options the entry point got, Shards > 0 included; it
// must not dispatch back.
type ShardMiner interface {
	MineExact(ctx context.Context, d *dataset.Dataset, opt ExactOptions) (*Result, error)
	NewCover(ctx context.Context, d *dataset.Dataset, cands []Candidate, par ParallelOptions) Cover
}

// shardMiner is written once from internal/shard's init (which
// happens-before any mining call) and read by the dispatch below.
var shardMiner ShardMiner

// RegisterShardMiner installs the sharded engine. It is called from an
// init function; calling it later than that is a race with mining.
func RegisterShardMiner(m ShardMiner) { shardMiner = m }

// errNoShardMiner reports a Shards > 0 request without a linked engine.
var errNoShardMiner = errors.New(
	"core: ParallelOptions.Shards > 0 but no sharded engine is linked in (import the twoview facade or twoview/internal/shard)")

// shardEngine resolves the sharding knobs: (nil, nil) means run the
// monolith, a non-nil engine means dispatch to it. Shards > 0 opts in,
// as does a non-empty ShardAddrs list (the TCP transport), which
// implies Shards = len(ShardAddrs) when Shards is left 0.
func shardEngine(o ParallelOptions) (ShardMiner, error) {
	if o.Shards <= 0 && len(o.ShardAddrs) == 0 {
		return nil, nil
	}
	if shardMiner == nil {
		return nil, errNoShardMiner
	}
	return shardMiner, nil
}
