package shard

import (
	"context"
	"slices"

	"twoview/internal/core"
	"twoview/internal/dataset"
)

// This file is the sharded TRANSLATOR-GREEDY driver: the monolith's
// single-pass filter (greedy.go in internal/core) with each speculation
// window scored by one SCORE round over the shards. The window logic is
// untouched — its boundaries depend only on accept positions, which are
// state- (never schedule-) dependent — and every decision is made
// against the merged gains of exactly the state the serial pass would
// have used, so the accepted sequence is bit-identical.

const (
	greedyMinBlock = 8
	greedyMaxBlock = 512
)

// greedyScore mirrors the monolith's: one candidate's best-of-three
// instantiation, or ok=false when discarded.
type greedyScore struct {
	rule core.Rule
	gain float64
	ok   bool
}

func mineGreedy(ctx context.Context, d *dataset.Dataset, cands []core.Candidate, opt core.GreedyOptions, cfg Config) (*core.Result, *runStats, error) {
	elapsed := stopwatch()
	r := newRun(ctx, d, cands, cfg)
	defer r.close()

	totals := core.NewCoverTotals(d, r.coder)
	table := &core.Table{}
	res := &core.Result{}

	// Candidate order: length desc, support desc, then deterministic —
	// the monolith's comparator verbatim.
	order := make([]int, len(cands))
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
		ra := core.Rule{X: ca.X, Y: ca.Y}
		rb := core.Rule{X: cb.X, Y: cb.Y}
		return ra.Compare(rb)
	})

	// The state-free qub verdict per candidate, once for the run (the
	// monolith re-evaluates the same formula at every consideration).
	qubOK := make([]bool, len(cands))
	for ci := range cands {
		qubOK[ci] = r.qub(&cands[ci]) > core.GainEpsilon
	}

	maxBlock := opt.BlockSize
	if maxBlock <= 0 {
		maxBlock = greedyMaxBlock
	}
	var scores []greedyScore
	pos, block := 0, min(greedyMinBlock, maxBlock)
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
		// One SCORE round evaluates the window's qub-surviving
		// candidates against the current (round-start) cover state. The
		// index list is fresh per window: once dispatched it belongs to
		// the request (see request).
		var idx []int32
		for j := pos; j < end; j++ {
			if qubOK[order[j]] {
				idx = append(idx, int32(order[j]))
			}
		}
		scores = scores[:0]
		for range end - pos {
			scores = append(scores, greedyScore{})
		}
		if len(idx) > 0 {
			var reps []*reply
			if reps, err = r.sv.scoreCands(idx, nil); err != nil {
				break
			}
			k := 0
			for j := pos; j < end; j++ {
				if !qubOK[order[j]] {
					continue
				}
				scores[j-pos] = r.mergeGreedy(&cands[order[j]], reps, k)
				k++
			}
		}
		// The serial walk: first accept invalidates the window's tail.
		next := end
		block = min(block*2, maxBlock)
		for j := pos; j < end; j++ {
			sc := scores[j-pos]
			if !sc.ok {
				continue
			}
			if err = applyRule(r, totals, nil, table, sc.rule); err != nil {
				break
			}
			if !record(res, r, totals, table, sc.rule, sc.gain, opt.Trace, opt.OnIteration) {
				stopped = true
			}
			next = j + 1
			block = min(greedyMinBlock, maxBlock)
			break
		}
		if err != nil {
			break
		}
		pos = next
	}
	res.Table = table
	res.State = core.EvaluateTable(d, r.coder, table)
	res.Runtime = elapsed()
	return res, r.stats(), err
}

// mergeGreedy folds entry k of a SCORE round into the candidate's
// best-of-three instantiation, with the monolith's exact comparison
// sequence (strictly-greater updates in Forward, Backward, Both order).
func (r *run) mergeGreedy(c *core.Candidate, reps []*reply, k int) greedyScore {
	for p, rep := range reps {
		r.fwdParts[p] = rep.counts[k].Fwd
		r.backParts[p] = rep.counts[k].Back
	}
	gainF := core.GainFromCounts(r.coder, dataset.Right, r.fwdParts...)
	gainB := core.GainFromCounts(r.coder, dataset.Left, r.backParts...)
	lenUni := r.coder.RuleLen(c.X, c.Y, false)
	lenBi := r.coder.RuleLen(c.X, c.Y, true)

	best := core.Rule{X: c.X, Dir: core.Forward, Y: c.Y}
	bestGain := gainF - lenUni
	if g := gainB - lenUni; g > bestGain {
		best, bestGain = core.Rule{X: c.X, Dir: core.Backward, Y: c.Y}, g
	}
	if g := gainF + gainB - lenBi; g > bestGain {
		best, bestGain = core.Rule{X: c.X, Dir: core.Both, Y: c.Y}, g
	}
	if bestGain <= core.GainEpsilon {
		return greedyScore{}
	}
	return greedyScore{rule: best, gain: bestGain, ok: true}
}
