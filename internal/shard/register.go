package shard

import (
	"context"

	"twoview/internal/core"
	"twoview/internal/dataset"
)

// engine adapts the package to core.ShardMiner: its own EXACT search,
// and the sharded cover core's SELECT and GREEDY drivers mine against.
// core cannot import this package (shard builds on core), so the wiring
// is inverted: init below registers the engine, and anything that links
// internal/shard in — the twoview facade, both CLIs — arms
// core.ParallelOptions.Shards.
type engine struct{}

func init() { core.RegisterShardMiner(engine{}) }

func (engine) MineExact(ctx context.Context, d *dataset.Dataset, opt core.ExactOptions) (*core.Result, error) {
	res, _, err := mineExact(ctx, d, opt, configFrom(opt.ParallelOptions))
	return res, err
}

func (engine) NewCover(ctx context.Context, d *dataset.Dataset, cands []core.Candidate, par core.ParallelOptions) core.Cover {
	return newCover(ctx, d, cands, configFrom(par))
}
