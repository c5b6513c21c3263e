package shard

import (
	"context"

	"twoview/internal/core"
	"twoview/internal/dataset"
)

// core cannot import this package (shard builds on core), so the wiring
// is inverted: init registers the sharded cover core's SELECT and GREEDY
// drivers mine against, and anything that links internal/shard in — the
// twoview facade, both CLIs — arms core.ParallelOptions.Shards.
func init() {
	core.RegisterShardCover(func(ctx context.Context, d *dataset.Dataset, cands []core.Candidate, par core.ParallelOptions) core.Cover {
		return newCover(ctx, d, cands, configFrom(par))
	})
}
