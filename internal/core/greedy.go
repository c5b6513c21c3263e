package core

import (
	"context"
	"slices"

	"twoview/internal/dataset"
	"twoview/internal/mdl"
)

// This file implements TRANSLATOR-GREEDY (§5.4): single-pass filtering in
// the style of KRIMP. Candidates are ordered descending first by length
// and then by support; each candidate is considered exactly once, the best
// of its three rule instantiations is added if its gain is strictly
// positive, and discarded candidates are never revisited.
//
// The driver below is the only GREEDY: it runs unchanged against the
// local State and against internal/shard's supervised run, both behind
// the Cover interface, and does every float operation itself.
//
// The pass is sequential by definition — every accepted rule changes the
// state all later candidates are scored against — so it parallelizes by
// speculation: candidates are scored against the current state in
// windows (one Cover.Score batch each), the window is walked serially,
// and on the first accepted rule the not-yet-walked remainder of the
// window is discarded and re-scored against the updated state. Every
// decision is therefore made against exactly the state the serial pass
// would have used, and since most candidates are rejected (their
// state-dependent scores untouched by the rare accepts), most
// speculative work is kept. On the local cover the re-score is cheap as
// well: its memo recounts only the (antecedent, item) pairs of the
// items the accepted rule touched. A cover that does not score ahead
// (Cover.ScoresAhead) gets windows of one candidate: the lazy walk,
// which scores each candidate exactly once at its turn.

// GreedyOptions configures MineGreedy.
type GreedyOptions struct {
	// MaxRules stops after this many rules; 0 means no limit.
	MaxRules int
	// OnIteration observes each added rule and may stop the run early by
	// returning false (the partial table is returned with a nil error).
	OnIteration IterationFunc
	// ParallelOptions sets the worker-pool size for speculative
	// candidate scoring; results are identical for any value.
	ParallelOptions
}

// On a cover that scores ahead, the speculation window grows
// geometrically from greedyMinBlock to greedyMaxBlock candidates: each
// accepted rule invalidates the rest of its window, and accepts cluster
// at the head of the length/support-descending candidate order, so the
// window restarts small after every accept and doubles across
// accept-free windows. Every candidate is judged against the state
// after all accepts before it, whatever the window sizes, so the
// decisions are identical for any parallelism and backend; the sizes
// only trade re-scored waste on accept against scheduling granularity.
const (
	greedyMinBlock = 8
	greedyMaxBlock = 512
)

// MineGreedy runs TRANSLATOR-GREEDY over the given candidates, on the
// cover opt.ParallelOptions selects (see MineGreedyOn).
//
// Cancelling ctx aborts the pass at the next checkpoint (a window
// boundary or a task boundary inside the speculative scoring phase) and
// returns the table mined so far alongside ctx.Err(). With an
// uncancelled context the result is bit-identical for every worker
// count and shard layout, and the error is nil.
func MineGreedy(ctx context.Context, d *dataset.Dataset, cands []Candidate, opt GreedyOptions) (*Result, error) {
	elapsed := stopwatch()
	c, err := NewCover(ctx, d, cands, opt.ParallelOptions)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	res, err := MineGreedyOn(ctx, c, d, cands, opt)
	res.Work.Cells = countedCells(c)
	res.Runtime = elapsed()
	return res, err
}

// MineGreedyOn runs TRANSLATOR-GREEDY against the cover c of d's empty
// table, built over cands. The caller owns c.
func MineGreedyOn(ctx context.Context, c Cover, d *dataset.Dataset, cands []Candidate, opt GreedyOptions) (*Result, error) {
	coder := mdl.NewCoder(d)
	res := &Result{}
	var table Table

	// Order: length desc, then support desc, then deterministic. The
	// order, the qub verdicts and the window buffers come from the
	// session's scratch pool, so repeated greedy passes allocate nothing
	// here.
	scr := opt.getScratch()
	order := slices.Grow(scr.order[:0], len(cands))[:len(cands)]
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		ca, cb := &cands[a], &cands[b]
		la, lb := len(ca.X)+len(ca.Y), len(cb.X)+len(cb.Y)
		if la != lb {
			return lb - la
		}
		if ca.Supp != cb.Supp {
			return cb.Supp - ca.Supp
		}
		ra := Rule{X: ca.X, Y: ca.Y}
		rb := Rule{X: cb.X, Y: cb.Y}
		return ra.Compare(rb)
	})
	// The state-free qub verdict of every candidate, once for the run.
	ok := qubVerdicts(coder, c, d, cands, scr.qubOK)

	minBlock, maxBlock := 1, 1
	if c.ScoresAhead() {
		minBlock, maxBlock = greedyMinBlock, greedyMaxBlock
	}
	idx, delta, views := scr.idx, scr.delta, scr.views
	pos, block := 0, minBlock
	var err error
	stopped := false
	for pos < len(order) && !stopped {
		if err = ctx.Err(); err != nil {
			break
		}
		if opt.MaxRules > 0 && len(table.Rules) >= opt.MaxRules {
			break
		}
		end := min(pos+block, len(order))
		// Score the window's qub survivors against the current state.
		idx, views = idx[:0], views[:0]
		n := 0
		for j := pos; j < end; j++ {
			if ci := order[j]; ok[ci] {
				idx = append(idx, int32(ci))
				n += len(cands[ci].Y) + len(cands[ci].X)
			}
		}
		delta = slices.Grow(delta[:0], n)[:n]
		off := 0
		for _, ci := range idx {
			m := len(cands[ci].Y) + len(cands[ci].X)
			views = append(views, delta[off:off+m])
			off += m
		}
		res.Work.Windows++
		res.Work.Scored += int64(len(idx))
		if len(idx) > 0 {
			if err = c.Score(ctx, idx, nil, views); err != nil {
				break
			}
		}
		// Serial walk: the first accepted rule invalidates the remaining
		// speculative scores (the state changed), so the walk restarts
		// right after it with a fresh, minimum-size window.
		next := end
		block = min(block*2, maxBlock)
		k := 0
		for j := pos; j < end; j++ {
			ci := order[j]
			if !ok[ci] {
				continue // discarded and never considered again
			}
			rule, gain, accept := bestOfThree(coder, &cands[ci], views[k])
			k++
			if !accept {
				continue
			}
			var totals *CoverTotals
			if totals, err = c.Apply(rule); err != nil {
				break
			}
			table.Rules = append(table.Rules, rule)
			if !res.Record(totals, &table, rule, gain, opt.OnIteration) {
				stopped = true
			}
			next = j + 1
			block = minBlock
			break
		}
		if err != nil {
			break
		}
		pos = next
	}
	scr.order, scr.qubOK, scr.idx, scr.delta, scr.views = order, ok, idx, delta, views
	opt.putScratch(scr)
	res.Table = table.clipped()
	res.State = c.State()
	return res, err
}

// bestOfThree is the single-pass filter's per-candidate verdict: the best
// of the candidate's three rule instantiations (strictly-greater updates
// in the order →, ←, ↔), accepted only if its gain exceeds GainEpsilon.
// delta holds the candidate's cover deltas.
func bestOfThree(coder *mdl.Coder, cd *Candidate, delta []int32) (Rule, float64, bool) {
	gainF, gainB := ruleGains(coder, cd, delta)
	lenUni := coder.RuleLen(cd.X, cd.Y, false)
	lenBi := coder.RuleLen(cd.X, cd.Y, true)

	best := Rule{X: cd.X, Dir: Forward, Y: cd.Y}
	bestGain := gainF - lenUni
	if g := gainB - lenUni; g > bestGain {
		best, bestGain = Rule{X: cd.X, Dir: Backward, Y: cd.Y}, g
	}
	if g := gainF + gainB - lenBi; g > bestGain {
		best, bestGain = Rule{X: cd.X, Dir: Both, Y: cd.Y}, g
	}
	return best, bestGain, bestGain > GainEpsilon
}
