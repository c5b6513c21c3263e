package core

import (
	"context"
	"errors"

	"twoview/internal/dataset"
)

// ShardCoverFunc builds the sharded Cover behind ParallelOptions.Shards
// and ShardAddrs: the supervised engine of internal/shard, on which the
// SELECT and GREEDY drivers mine unchanged. core cannot import
// internal/shard (shard builds on core), so the constructor is injected:
// internal/shard registers it in an init function. Only a binary that
// links internal/shard can use the knobs, and none of the library's
// commands or its facade does: the engine is a benchmark fixture
// (perfbench's shard-tcp workload), and ROADMAP item 2 deletes this hook
// with it. EXACT never uses it.
type ShardCoverFunc func(ctx context.Context, d *dataset.Dataset, cands []Candidate, par ParallelOptions) Cover

// shardCover is written once from internal/shard's init (which
// happens-before any mining call) and read by NewCover.
var shardCover ShardCoverFunc

// RegisterShardCover installs the sharded cover constructor. It is
// called from internal/shard's init function; calling it later than
// that is a race with mining.
func RegisterShardCover(f ShardCoverFunc) { shardCover = f }

// errNoShardCover reports a sharded SELECT or GREEDY request in a binary
// that does not link the engine.
var errNoShardCover = errors.New(
	"core: ParallelOptions.Shards or ShardAddrs set but internal/shard is not linked in (only the benchmark links the sharded engine, which is being retired)")
