package shard

import (
	"context"
	"slices"

	"twoview/internal/core"
	"twoview/internal/dataset"
	"twoview/internal/itemset"
	"twoview/internal/mdl"
)

// cover is the sharded core.Cover: one supervised run, on which core's
// SELECT and GREEDY drivers mine unchanged. Each Score batch is one
// SCORE round and each Apply one APPLY round. The shards count, the
// cover places their counts, and the drivers do all float arithmetic.
// totals folds each APPLY round's counts in the monolith's order
// (applyRule), so the totals Apply returns, and the driver reports at
// the end of the run, are the monolith's bit for bit.
type cover struct {
	r      *run
	totals *core.CoverTotals
}

func newCover(ctx context.Context, d *dataset.Dataset, cands []core.Candidate, cfg Config) *cover {
	r := newRun(ctx, d, cands, cfg)
	return &cover{r: r, totals: core.NewCoverTotals(d, mdl.NewCoder(d))}
}

// Score runs one SCORE round over the batch. A masked round names the
// dirty items per view, and each shard recounts and replies with only
// those; the round's (candidate, item) pairs go to runStats.requested.
// Each shard's ItemCount lands in the delta of its item as
// Covered − Errors.
func (c *cover) Score(_ context.Context, idx []int32, dirty *core.DirtyItems, delta [][]int32) error {
	cands := c.r.cands
	if dirty != nil {
		pairs := 0
		for _, ci := range idx {
			pairs += dirty.Count(cands[ci].X, cands[ci].Y)
		}
		c.r.requested = append(c.r.requested, pairs)
	}
	if len(idx) == 0 {
		return nil
	}
	// Once dispatched, the index list belongs to the request: a replaced
	// incarnation may still be reading it, so each round gets its own.
	reps, err := c.r.sv.scoreCands(slices.Clone(idx), dirty)
	if err != nil {
		return err
	}
	for k, ci := range idx {
		cd := &cands[ci]
		for _, rep := range reps {
			putDeltas(cd.Y, delta[k], rep.Counts[k].Fwd)
			putDeltas(cd.X, delta[k][len(cd.Y):], rep.Counts[k].Back)
		}
	}
	return nil
}

// putDeltas writes each count into the delta of its item of cons. Both are
// in item order, and every counted item is in cons (the round checked
// the reply with ownedCounts).
func putDeltas(cons itemset.Itemset, delta []int32, counts []core.ItemCount) {
	j := 0
	for _, cnt := range counts {
		for cons[j] != int(cnt.Item) {
			j++
		}
		delta[j] = cnt.Covered - cnt.Errors
	}
}

func (c *cover) Apply(rule core.Rule) (*core.CoverTotals, error) {
	if err := applyRule(c.r, c.totals, rule); err != nil {
		return nil, err
	}
	return c.totals, nil
}

// ScoresAhead is always true: every Score is a round trip to the
// shards, so GREEDY scores its speculation windows in batches.
func (c *cover) ScoresAhead() bool { return true }

func (c *cover) Close() { c.r.close() }

// mineSelect runs core's SELECT driver on a sharded cover with the given
// config.
func mineSelect(ctx context.Context, d *dataset.Dataset, cands []core.Candidate, opt core.SelectOptions, cfg Config) (*core.Result, *runStats, error) {
	c := newCover(ctx, d, cands, cfg)
	defer c.Close()
	res, err := core.MineSelectOn(ctx, c, d, cands, opt)
	return res, c.r.stats(), err
}

// mineGreedy runs core's GREEDY driver on a sharded cover with the given
// config.
func mineGreedy(ctx context.Context, d *dataset.Dataset, cands []core.Candidate, opt core.GreedyOptions, cfg Config) (*core.Result, *runStats, error) {
	c := newCover(ctx, d, cands, cfg)
	defer c.Close()
	res, err := core.MineGreedyOn(ctx, c, d, cands, opt)
	return res, c.r.stats(), err
}
