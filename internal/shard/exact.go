package shard

import (
	"context"
	"slices"
	"sort"

	"twoview/internal/bitset"
	"twoview/internal/core"
	"twoview/internal/dataset"
	"twoview/internal/itemset"
)

// This file is the sharded TRANSLATOR-EXACT driver. The enumeration —
// the ECLAT-style DFS over occurring pairs, in the monolith's exact
// item order — runs on the coordinator, which owns every float the
// search ranks by; the shards evaluate batches of enumerated pairs
// (integer counts only) and apply accepted rules. Three deliberate
// differences from the monolith, none observable in the result:
//
//   - No rub pruning and no seed phase: both only shrink the set of
//     evaluated pairs, and the pruning threshold is always an achieved
//     gain ≤ the final best gain, so every pair they skip loses
//     strictly (qub/rub bound the gain from above, and the skip test
//     is strict <). Evaluating a superset changes no champion under
//     the (gain, Rule.Compare) total order. rub would need the tub
//     sums fused into every tidset intersection — all-shard traffic
//     per DFS node — for bounds that §6.1 shows decay after the first
//     iterations anyway; qub needs only the path lengths and support
//     counts the coordinator already has, so it is kept.
//   - Pairs are evaluated in batches (one SCORE round per batch)
//     instead of immediately, so the incumbent the qub filter sees
//     lags the monolith's by at most a batch — a larger evaluated
//     superset, same champion.
//   - The item potentials that order the search come from the
//     coordinator's TubMirror, maintained from the covered tidsets the
//     apply acknowledgements carry — the identical update history, so
//     the identical float bits — instead of from a live State.
type exactDriver struct {
	r    *run
	opt  core.ExactOptions
	tubm *core.TubMirror

	// ctx of the current bestRule call, probed inside the DFS at the
	// monolith's granularity.
	ctx   context.Context
	ticks uint

	// items is rebuilt (re-sorted by potential) every iteration; the
	// slice is reused.
	items []exItem
	// levels is the per-depth DFS scratch, grown on first descent.
	levels []exLevel
	// batch accumulates enumerated pairs between SCORE rounds; keep is
	// the flush-local surviving-index scratch.
	batch []pairEval
	keep  []int

	full, fullY, fullXY *bitset.Set

	// The champion under the (gain, Rule.Compare) total order. Its
	// itemsets alias the batch entries' owned clones.
	best     core.Rule
	bestGain float64
	found    bool
}

// exItem is the monolith's joinedItem: one item of the joined alphabet.
type exItem struct {
	view dataset.View
	id   int
	col  *bitset.Set
	len  float64
	pot  float64
}

type exLevel struct {
	xy, side *bitset.Set
	set      itemset.Itemset
}

// pairEval is one enumerated pair awaiting evaluation: owned itemset
// clones, the support counts for qub, and the DFS-path-accumulated
// lengths (whose float addition order the monolith's champion gains
// depend on — which is why the coordinator, which replicates the DFS
// paths, must accumulate them rather than recompute Σ ItemLen in any
// other order).
type pairEval struct {
	x, y         itemset.Itemset
	suppX, suppY int
	lenX, lenY   float64
}

// exactBatch is the SCORE-round batch size: enumeration cost per pair
// is tiny next to a round's dispatch-gather overhead, so batches keep
// the shards' phases meaty. The value affects only how far the qub
// incumbent lags, never the result.
const exactBatch = 256

// exactCtxProbeMask mirrors the monolith's in-branch cancellation probe
// granularity: one ctx.Err() per 1024 extensions.
const exactCtxProbeMask = 1<<10 - 1

func newExactDriver(r *run, opt core.ExactOptions, tubm *core.TubMirror) *exactDriver {
	n := r.d.Size()
	ed := &exactDriver{r: r, opt: opt, tubm: tubm}
	ed.full = bitset.New(n)
	ed.full.Fill()
	ed.fullY, ed.fullXY = ed.full.Clone(), ed.full.Clone()
	return ed
}

func mineExact(ctx context.Context, d *dataset.Dataset, opt core.ExactOptions, cfg Config) (*core.Result, *runStats, error) {
	r := newRun(ctx, d, nil, cfg)
	defer r.close()

	totals := core.NewCoverTotals(d, r.coder)
	tubm := core.NewTubMirror(d, r.coder)
	table := &core.Table{}
	res := &core.Result{}
	ed := newExactDriver(r, opt, tubm)

	var err error
	for opt.MaxRules == 0 || len(table.Rules) < opt.MaxRules {
		if err = ctx.Err(); err != nil {
			break
		}
		var rule core.Rule
		var gain float64
		var ok bool
		if rule, gain, ok, err = ed.bestRule(ctx); err != nil || !ok || gain <= core.GainEpsilon {
			break
		}
		if err = applyRule(r, totals, tubm, rule); err != nil {
			break
		}
		table.Rules = append(table.Rules, rule)
		if !res.Record(totals, table, rule, gain, opt.Trace, opt.OnIteration) {
			break
		}
	}
	res.Table = table
	res.State = core.EvaluateTable(d, r.coder, table)
	return res, r.stats(), err
}

// bestRule finds argmax_r Δ_{D,T}(r) with the monolith's deterministic
// tie-break: enumerate in the potential-sorted item order, evaluate
// through SCORE rounds, keep the champion.
func (ed *exactDriver) bestRule(ctx context.Context) (core.Rule, float64, bool, error) {
	d := ed.r.d
	ed.ctx = ctx
	items := ed.items[:0]
	for _, v := range []dataset.View{dataset.Left, dataset.Right} {
		cols := d.Columns(v)
		for i := 0; i < d.Items(v); i++ {
			if cols[i].Empty() {
				continue
			}
			items = append(items, exItem{
				view: v,
				id:   i,
				col:  cols[i],
				len:  ed.r.coder.ItemLen(v, i),
				pot:  ed.tubm.SumTub(v.Opposite(), cols[i]),
			})
		}
	}
	slices.SortFunc(items, func(a, b exItem) int {
		switch {
		case a.pot > b.pot:
			return -1
		case a.pot < b.pot:
			return 1
		case a.view != b.view:
			return int(a.view) - int(b.view)
		default:
			return a.id - b.id
		}
	})
	ed.items = items
	ed.best, ed.bestGain, ed.found = core.Rule{}, 0, false

	for k := range items {
		if err := ed.extend(nil, nil, ed.full, ed.fullY, ed.fullXY, k, 0, 0, 0); err != nil {
			return core.Rule{}, 0, false, err
		}
	}
	if err := ed.flush(); err != nil {
		return core.Rule{}, 0, false, err
	}
	if !ed.found {
		return core.Rule{}, 0, false, nil
	}
	return core.Rule{X: ed.best.X.Clone(), Dir: ed.best.Dir, Y: ed.best.Y.Clone()}, ed.bestGain, true, nil
}

func (ed *exactDriver) bufs(depth int) *exLevel {
	for len(ed.levels) <= depth {
		n := ed.r.d.Size()
		ed.levels = append(ed.levels, exLevel{xy: bitset.New(n), side: bitset.New(n)})
	}
	return &ed.levels[depth]
}

// extend grows the pair (x, y) by the item at position k, enqueues the
// result for evaluation when both sides are non-empty, and recurses
// into positions > k — the monolith's extend minus the rub arithmetic.
func (ed *exactDriver) extend(x, y itemset.Itemset, tidX, tidY, tidXY *bitset.Set, k, depth int, lenX, lenY float64) error {
	if ed.ticks++; ed.ticks&exactCtxProbeMask == 0 {
		if err := ed.ctx.Err(); err != nil {
			return err
		}
	}
	it := ed.items[k]
	bufs := ed.bufs(depth)
	childXY := bufs.xy
	bitset.IntersectInto(childXY, tidXY, it.col)
	if childXY.Empty() {
		return nil // X∪Y must occur in the data (§5.2)
	}
	bufs.set = insertItemInto(bufs.set, x, y, it)
	var cx, cy itemset.Itemset
	var ctX, ctY *bitset.Set
	clenX, clenY := lenX, lenY
	if it.view == dataset.Left {
		cx, cy = bufs.set, y
		ctX = bufs.side
		bitset.IntersectInto(ctX, tidX, it.col)
		ctY = tidY
		clenX += it.len
	} else {
		cx, cy = x, bufs.set
		ctX = tidX
		ctY = bufs.side
		bitset.IntersectInto(ctY, tidY, it.col)
		clenY += it.len
	}
	if len(cx) > 0 && len(cy) > 0 {
		if err := ed.enqueue(cx, cy, ctX, ctY, clenX, clenY); err != nil {
			return err
		}
	}
	for k2 := k + 1; k2 < len(ed.items); k2++ {
		if err := ed.extend(cx, cy, ctX, ctY, childXY, k2, depth+1, clenX, clenY); err != nil {
			return err
		}
	}
	return nil
}

// insertItemInto writes (x or y) ∪ {it.id} into dst, reusing capacity —
// the monolith's insertItemInto.
func insertItemInto(dst itemset.Itemset, x, y itemset.Itemset, it exItem) itemset.Itemset {
	s := x
	if it.view == dataset.Right {
		s = y
	}
	i := sort.SearchInts(s, it.id)
	dst = append(dst[:0], s[:i]...)
	dst = append(dst, it.id)
	return append(dst, s[i:]...)
}

// enqueue records an enumerated pair for the next SCORE round, flushing
// a full batch.
func (ed *exactDriver) enqueue(x, y itemset.Itemset, tidX, tidY *bitset.Set, lenX, lenY float64) error {
	ed.batch = append(ed.batch, pairEval{
		x: x.Clone(), y: y.Clone(),
		suppX: tidX.Count(), suppY: tidY.Count(),
		lenX: lenX, lenY: lenY,
	})
	if len(ed.batch) >= exactBatch {
		return ed.flush()
	}
	return nil
}

// flush evaluates the accumulated batch: filter by qub against the live
// incumbent (strict <, like the monolith's evaluate — a pair whose
// bound merely equals the incumbent may still win the Compare
// tie-break), run one SCORE round over the survivors, fold the counts
// into the three directions' gains with the monolith's arithmetic, and
// update the champion under its exact comparison rule.
func (ed *exactDriver) flush() error {
	if len(ed.batch) == 0 {
		return nil
	}
	batch := ed.batch
	ed.batch = ed.batch[:0]
	keep := ed.keep[:0]
	// The pair list is fresh per round: once dispatched it belongs to
	// the request (see request).
	var pairs []pairMsg
	for i := range batch {
		pe := &batch[i]
		if !ed.opt.DisableQub {
			if core.PathQub(pe.suppX, pe.suppY, pe.lenX, pe.lenY) < ed.bestGain {
				continue
			}
		}
		keep = append(keep, i)
		pairs = append(pairs, pairMsg{x: pe.x, y: pe.y})
	}
	ed.keep = keep
	if len(pairs) == 0 {
		return nil
	}
	reps, err := ed.r.sv.scorePairs(pairs)
	if err != nil {
		return err
	}
	r := ed.r
	for pi, bi := range keep {
		pe := &batch[bi]
		for p, rep := range reps {
			r.fwdParts[p] = rep.counts[pi].Fwd
			r.backParts[p] = rep.counts[pi].Back
		}
		gainF := core.GainFromCounts(r.coder, dataset.Right, r.fwdParts...)
		gainB := core.GainFromCounts(r.coder, dataset.Left, r.backParts...)
		lenBi := pe.lenX + pe.lenY + 1
		lenUni := pe.lenX + pe.lenY + 2
		for _, cand := range [3]struct {
			dir  core.Direction
			gain float64
		}{
			{core.Forward, gainF - lenUni},
			{core.Backward, gainB - lenUni},
			{core.Both, gainF + gainB - lenBi},
		} {
			rl := core.Rule{X: pe.x, Dir: cand.dir, Y: pe.y}
			if cand.gain > ed.bestGain ||
				(ed.found && cand.gain == ed.bestGain && rl.Compare(ed.best) < 0) {
				ed.best = rl
				ed.bestGain = cand.gain
				ed.found = true
			}
		}
	}
	return nil
}
