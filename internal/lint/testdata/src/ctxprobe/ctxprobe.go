// Package ctxprobe exercises the ctxprobe analyzer on loops driving
// bitset kernels: a kernel loop needs a cancellation checkpoint.
package ctxprobe

import (
	"context"

	"twoview/internal/bitset"
	"twoview/internal/pool"
)

// Flagged: unbounded kernel loop with no cancellation checkpoint.
func Sum(sets []*bitset.Set, q *bitset.Set) int {
	total := 0
	for _, s := range sets { // want `without a cancellation checkpoint`
		total += bitset.AndCount(s, q)
	}
	return total
}

// Allowed: masked ctx probe inside the loop body.
func SumProbed(ctx context.Context, sets []*bitset.Set, q *bitset.Set) (int, error) {
	const ctxProbeMask = 1<<10 - 1
	total := 0
	for i, s := range sets {
		if i&ctxProbeMask == 0 {
			if err := ctx.Err(); err != nil {
				return 0, err
			}
		}
		total += bitset.AndCount(s, q)
	}
	return total, nil
}

// Allowed: bounded loop justified by annotation.
func SumSmall(sets []*bitset.Set, q *bitset.Set) int {
	total := 0
	//lint:ctxprobe-ok fixture: bounded by construction
	for _, s := range sets {
		total += bitset.AndCount(s, q)
	}
	return total
}

// Flagged: the weighted-sum kernel is a striped-core entry point too.
func SumWeighted(sets []*bitset.Set, w []float64) float64 {
	total := 0.0
	for _, s := range sets { // want `without a cancellation checkpoint`
		total += bitset.WeightedSum(s, w)
	}
	return total
}

// Flagged: the shard-round shape without its probe — a loop submitting
// one pool phase per round; cancelling the caller would leave the
// rounds spinning and the workers owned.
func Rounds(p *pool.Pool[int], rounds, tasks int) {
	for r := 0; r < rounds; r++ { // want `without a cancellation checkpoint`
		p.Run(tasks, func(int, int) {})
	}
}

// Allowed: the supervised twin — each round's phase runs under a
// context-threading submission (the shard drivers' RunCtx-under-lease
// idiom), which is cancellation evidence by itself.
func RoundsLeased(ctx context.Context, p *pool.Pool[int], rounds, tasks int) error {
	for r := 0; r < rounds; r++ {
		if err := p.RunCtx(ctx, tasks, func(int, int) {}); err != nil {
			return err
		}
	}
	return nil
}

// Allowed: the chunked-round idiom — each round's ForChunksCtx phase
// threads the context, which is cancellation evidence by itself.
func ChunkRounds(ctx context.Context, rounds, n int) error {
	for r := 0; r < rounds; r++ {
		if err := pool.ForChunksCtx(ctx, 2, n, 64, func(int, int) {}); err != nil {
			return err
		}
	}
	return nil
}

// Allowed: delegation — the serving-batch idiom, where each iteration
// threads the request context into a callee that owns the probing.
func SumDelegated(ctx context.Context, sets []*bitset.Set, q *bitset.Set) (int, error) {
	total := 0
	for _, s := range sets {
		total += bitset.AndCount(s, q)
		if err := checkpoint(ctx, total); err != nil {
			return 0, err
		}
	}
	return total, nil
}

func checkpoint(ctx context.Context, _ int) error { return ctx.Err() }

// Allowed: the same weighted-sum loop with a masked ctx probe.
func SumWeightedProbed(ctx context.Context, sets []*bitset.Set, w []float64) (float64, error) {
	const ctxProbeMask = 1<<10 - 1
	total := 0.0
	for i, s := range sets {
		if i&ctxProbeMask == 0 {
			if err := ctx.Err(); err != nil {
				return 0, err
			}
		}
		total += bitset.WeightedSum(s, w)
	}
	return total, nil
}

// Flagged: the worker-daemon anti-pattern — a host loop scoring rounds
// without observing its incarnation context would keep computing for a
// coordinator that already replaced it.
func HostRounds(p *pool.Pool[int], rounds, tasks int) {
	for r := 0; r < rounds; r++ { // want `without a cancellation checkpoint`
		p.Run(tasks, func(int, int) {})
	}
}

// Allowed: the shardworker host idiom — every scoring phase runs under
// the incarnation's context (RunCtx under a lease), so cancellation is
// observed at phase granularity.
func HostRoundsLeased(ctx context.Context, p *pool.Pool[int], rounds, tasks int) error {
	for r := 0; r < rounds; r++ {
		if err := p.RunCtx(ctx, tasks, func(int, int) {}); err != nil {
			return err
		}
	}
	return nil
}
