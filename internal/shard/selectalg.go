package shard

import (
	"context"
	"sort"

	"twoview/internal/bitset"
	"twoview/internal/core"
	"twoview/internal/dataset"
)

// This file is the sharded TRANSLATOR-SELECT(k) driver: the monolith's
// round structure (selectalg.go in internal/core), with the scoring
// pass replaced by a SCORE round over the shards and every accepted
// rule flowing through an APPLY round. Bit-identity rests on three
// facts, each pinned by tests:
//
//   - the shards' merged integer counts reproduce gainDir's floats
//     exactly (core.GainFromCounts);
//   - the candidate quick bound is state-free, so the qub filter admits
//     the same candidate set every round — applied once up front, as
//     the monolith's scoring cache does;
//   - the Line-8 re-check gain equals the scored gain bit-for-bit, so
//     the add walk reuses the scored values like the monolith does (the
//     overlap-filter argument in the file comment of core's
//     selectalg.go).

type scoredRule struct {
	rule core.Rule
	gain float64
}

func mineSelect(ctx context.Context, d *dataset.Dataset, cands []core.Candidate, opt core.SelectOptions, cfg Config) (*core.Result, *runStats, error) {
	elapsed := stopwatch()
	if opt.K < 1 {
		opt.K = 1
	}
	r := newRun(ctx, d, cands, cfg)
	defer r.close()

	totals := core.NewCoverTotals(d, r.coder)
	table := &core.Table{}
	res := &core.Result{}

	// The state-free qub filter, once for the whole run.
	survivors := make([]int32, 0, len(cands))
	for ci := range cands {
		if r.qub(&cands[ci]) > core.GainEpsilon {
			survivors = append(survivors, int32(ci))
		}
	}

	usedL := bitset.New(d.Items(dataset.Left))
	usedR := bitset.New(d.Items(dataset.Right))
	var scored []scoredRule
	var err error
	stopped := false
	for !stopped {
		if err = ctx.Err(); err != nil {
			break
		}
		if opt.MaxRules > 0 && len(table.Rules) >= opt.MaxRules {
			break
		}
		// Line 3: one SCORE round scores every surviving candidate on
		// its owning shards; the merge walks candidates in index order,
		// appending the same three directions the monolith's scoring
		// does.
		scored = scored[:0]
		if len(survivors) > 0 {
			var reps []*reply
			if reps, err = r.sv.scoreCands(survivors); err != nil {
				break
			}
			scored = r.mergeScored(survivors, reps, scored)
		}
		if len(scored) == 0 {
			break
		}
		sort.Slice(scored, func(a, b int) bool {
			if scored[a].gain != scored[b].gain {
				return scored[a].gain > scored[b].gain
			}
			return scored[a].rule.Compare(scored[b].rule) < 0
		})
		if len(scored) > opt.K {
			scored = scored[:opt.K]
		}

		// Lines 5-10: the serial add walk, with an APPLY round where
		// the monolith has AddRule. The scored gain doubles as the
		// Line-8 re-check (see the file comment).
		usedL.Reset(d.Items(dataset.Left))
		usedR.Reset(d.Items(dataset.Right))
		added := false
		for _, sr := range scored {
			if opt.MaxRules > 0 && len(table.Rules) >= opt.MaxRules {
				break
			}
			if anyIn(sr.rule.X, usedL) || anyIn(sr.rule.Y, usedR) {
				continue
			}
			if sr.gain <= core.GainEpsilon {
				continue
			}
			if err = applyRule(r, totals, nil, table, sr.rule); err != nil {
				break
			}
			if !record(res, r, totals, table, sr.rule, sr.gain, opt.Trace, opt.OnIteration) {
				stopped = true
			}
			for _, it := range sr.rule.X {
				usedL.Add(it)
			}
			for _, it := range sr.rule.Y {
				usedR.Add(it)
			}
			added = true
			if stopped {
				break
			}
		}
		if err != nil || !added {
			break
		}
	}
	res.Table = table
	res.State = core.EvaluateTable(d, r.coder, table)
	res.Runtime = elapsed()
	return res, r.stats(), err
}

// mergeScored folds one SCORE round's replies into scored rules, in
// candidate-index order — the same order, content and float bits as the
// monolith's scoring over the qub-surviving candidates.
func (r *run) mergeScored(survivors []int32, reps []*reply, dst []scoredRule) []scoredRule {
	coder := r.coder
	for i, ci := range survivors {
		c := &r.cands[ci]
		for p, rep := range reps {
			r.fwdParts[p] = rep.counts[i].Fwd
			r.backParts[p] = rep.counts[i].Back
		}
		gainF := core.GainFromCounts(coder, dataset.Right, r.fwdParts...)
		gainB := core.GainFromCounts(coder, dataset.Left, r.backParts...)
		lenUni := coder.RuleLen(c.X, c.Y, false)
		lenBi := coder.RuleLen(c.X, c.Y, true)
		for _, sr := range [3]scoredRule{
			{core.Rule{X: c.X, Dir: core.Forward, Y: c.Y}, gainF - lenUni},
			{core.Rule{X: c.X, Dir: core.Backward, Y: c.Y}, gainB - lenUni},
			{core.Rule{X: c.X, Dir: core.Both, Y: c.Y}, gainF + gainB - lenBi},
		} {
			if sr.gain > core.GainEpsilon {
				dst = append(dst, sr)
			}
		}
	}
	return dst
}
