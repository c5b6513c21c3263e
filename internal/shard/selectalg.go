package shard

import (
	"context"

	"twoview/internal/bitset"
	"twoview/internal/core"
	"twoview/internal/dataset"
	"twoview/internal/itemset"
)

// This file is the sharded TRANSLATOR-SELECT(k) driver: the monolith's
// round structure (selectalg.go in internal/core), with the scoring
// pass replaced by a SCORE round over the shards and every accepted
// rule flowing through an APPLY round.
//
// Scoring is incremental, like the monolith's selectCache, with the
// cache on the coordinator and the shards left cache-free. For each
// candidate that passes the qub filter the coordinator keeps both rule
// lengths, the folded gain of each direction, and the merged per-item
// counts of its consequent items. Adding a rule changes the U and E
// columns only at the consequent items of the directions it applies
// (core.DirtyItems.Touch), so a round scores only the candidates with
// at least one such dirty consequent item, and its SCORE request names
// the dirty items per view. Each shard recounts just those items and
// replies with them alone, so a reply is still a pure function of
// (dataset, ranges, log, request). The coordinator writes the replies
// into the cached counts and refolds the direction gains over the
// cached counts in item order.
//
// Bit-identity with the monolith rests on four facts, each pinned by
// tests:
//
//   - the shards' integer counts reproduce gainDir's floats exactly
//     when folded in consequent-item order (core.GainFromCounts), and
//     a cached count equals a fresh one until its item is touched;
//   - the candidate quick bound is state-free, so the qub filter admits
//     the same candidate set every round — applied once up front, as
//     the monolith's scoring cache does;
//   - the scored rules are ranked with the monolith's own core.TopK;
//   - the Line-8 re-check gain equals the scored gain bit-for-bit, so
//     the add walk reuses the scored values like the monolith does (the
//     overlap-filter argument in the file comment of core's
//     selectalg.go).

// selectSlot is the coordinator's cache entry of one candidate that
// passed the qub filter.
type selectSlot struct {
	cand          int32   // index into the candidates
	off           int     // start of the candidate's counts in selectCache.counts
	lenUni, lenBi float64 // L(X→Y) = L(X←Y), and L(X↔Y)
	gainF, gainB  float64 // Δ_{D|T} of the X→Y and X←Y directions
}

// selectCache is the coordinator side of incremental SELECT scoring.
type selectCache struct {
	slots []selectSlot
	// counts holds, per slot, the merged counts of each consequent item:
	// the items of Y (the X→Y direction, target view Right), then those
	// of X (X←Y, target view Left), each in item order.
	counts []core.ItemCount
	// dirty marks the items touched since the cached counts were taken.
	dirty core.DirtyItems
	// stale lists the slots the current round rescored, in slot order:
	// entry k of every reply belongs to slot stale[k].
	stale []int
}

// newSelectCache applies the state-free qub filter, caches the rule
// lengths and consequent items of the candidates that pass, and marks
// every item dirty.
func newSelectCache(r *run) *selectCache {
	c := &selectCache{}
	for ci := range r.cands {
		cd := &r.cands[ci]
		if r.qub(cd) <= core.GainEpsilon {
			continue
		}
		c.slots = append(c.slots, selectSlot{
			cand:   int32(ci),
			off:    len(c.counts),
			lenUni: r.coder.RuleLen(cd.X, cd.Y, false),
			lenBi:  r.coder.RuleLen(cd.X, cd.Y, true),
		})
		for _, items := range [2]itemset.Itemset{cd.Y, cd.X} {
			for _, it := range items {
				c.counts = append(c.counts, core.ItemCount{Item: int32(it)})
			}
		}
	}
	c.dirty.Fill(r.d)
	return c
}

// refresh runs one SCORE round over the slots with a dirty consequent
// item, asking only for the dirty items, and refolds those slots'
// gains. It leaves no item dirty. It records the number of
// (candidate, item) pairs it requested in r.requested.
func (c *selectCache) refresh(r *run) error {
	// The candidate list and the dirty lists are fresh per round: once
	// dispatched they belong to the request (see request).
	var cands []int32
	c.stale = c.stale[:0]
	pairs := 0
	for i := range c.slots {
		cd := &r.cands[c.slots[i].cand]
		n := countIn(cd.Y, &c.dirty[dataset.Right]) + countIn(cd.X, &c.dirty[dataset.Left])
		if n > 0 {
			cands = append(cands, c.slots[i].cand)
			c.stale = append(c.stale, i)
			pairs += n
		}
	}
	r.requested = append(r.requested, pairs)
	if len(cands) == 0 {
		return nil
	}
	dirty := c.dirty.Items()
	reps, err := r.sv.scoreCands(cands, &dirty)
	if err != nil {
		return err
	}
	c.dirty.Clear()
	for k, i := range c.stale {
		sl := &c.slots[i]
		cd := &r.cands[sl.cand]
		fwd := c.counts[sl.off : sl.off+len(cd.Y)]
		back := c.counts[sl.off+len(cd.Y) : sl.off+len(cd.Y)+len(cd.X)]
		for _, rep := range reps {
			place(fwd, rep.counts[k].Fwd)
			place(back, rep.counts[k].Back)
		}
		sl.gainF = core.GainFromCounts(r.coder, dataset.Right, fwd)
		sl.gainB = core.GainFromCounts(r.coder, dataset.Left, back)
	}
	return nil
}

// appendScored appends every rule with gain above GainEpsilon to dst: in
// candidate order, and per candidate in the order →, ←, ↔ — what the
// monolith's scoring appends.
func (c *selectCache) appendScored(cands []core.Candidate, dst []core.ScoredRule) []core.ScoredRule {
	for i := range c.slots {
		sl := &c.slots[i]
		cd := &cands[sl.cand]
		gains := [3]float64{sl.gainF - sl.lenUni, sl.gainB - sl.lenUni, sl.gainF + sl.gainB - sl.lenBi}
		for dir, g := range gains {
			if g > core.GainEpsilon {
				dst = append(dst, core.ScoredRule{Rule: core.Rule{X: cd.X, Dir: core.Directions[dir], Y: cd.Y}, Gain: g})
			}
		}
	}
	return dst
}

// place writes each count into the cached entry of its item. Both
// slices are in item order, and every counted item is in cached.
func place(cached, counts []core.ItemCount) {
	j := 0
	for _, cnt := range counts {
		for cached[j].Item != cnt.Item {
			j++
		}
		cached[j] = cnt
	}
}

// countIn returns the number of items of s in mask.
func countIn(s []int, mask *bitset.Set) int {
	n := 0
	for _, it := range s {
		if mask.Contains(it) {
			n++
		}
	}
	return n
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
	cache := newSelectCache(r)

	usedL := bitset.New(d.Items(dataset.Left))
	usedR := bitset.New(d.Items(dataset.Right))
	var scored []core.ScoredRule
	var err error
	stopped := false
	for !stopped {
		if err = ctx.Err(); err != nil {
			break
		}
		if opt.MaxRules > 0 && len(table.Rules) >= opt.MaxRules {
			break
		}
		// Line 3: one SCORE round brings the cache up to date, then every
		// surviving candidate contributes its three directions.
		if err = cache.refresh(r); err != nil {
			break
		}
		scored = cache.appendScored(cands, scored[:0])
		top := core.TopK(scored, opt.K)
		if len(top) == 0 {
			break
		}

		// Lines 5-10: the serial add walk, with an APPLY round where
		// the monolith has AddRule. The scored gain doubles as the
		// Line-8 re-check (see the file comment).
		usedL.Reset(d.Items(dataset.Left))
		usedR.Reset(d.Items(dataset.Right))
		added := false
		for _, sr := range top {
			if opt.MaxRules > 0 && len(table.Rules) >= opt.MaxRules {
				break
			}
			if anyIn(sr.Rule.X, usedL) || anyIn(sr.Rule.Y, usedR) {
				continue
			}
			if err = applyRule(r, totals, nil, table, sr.Rule); err != nil {
				break
			}
			cache.dirty.Touch(sr.Rule)
			if !record(res, r, totals, table, sr.Rule, sr.Gain, opt.Trace, opt.OnIteration) {
				stopped = true
			}
			for _, it := range sr.Rule.X {
				usedL.Add(it)
			}
			for _, it := range sr.Rule.Y {
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
