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
// internal/shard registers it in an init function, and linking it in —
// the twoview facade and both CLIs blank-import it — arms the knobs.
// EXACT never uses it.
type ShardCoverFunc func(ctx context.Context, d *dataset.Dataset, cands []Candidate, par ParallelOptions) Cover

// shardCover is written once from internal/shard's init (which
// happens-before any mining call) and read by NewCover.
var shardCover ShardCoverFunc

// RegisterShardCover installs the sharded cover constructor. It is
// called from an init function; calling it later than that is a race
// with mining.
func RegisterShardCover(f ShardCoverFunc) { shardCover = f }

// errNoShardCover reports a sharded SELECT or GREEDY request without a
// linked engine.
var errNoShardCover = errors.New(
	"core: ParallelOptions.Shards or ShardAddrs set but no sharded engine is linked in (import the twoview facade or twoview/internal/shard)")
