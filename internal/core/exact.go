package core

import (
	"context"
	"slices"
	"sort"

	"twoview/internal/bitset"
	"twoview/internal/dataset"
	"twoview/internal/itemset"
	"twoview/internal/mdl"
	"twoview/internal/pool"
)

// This file implements TRANSLATOR-EXACT (Algorithm 2): starting from the
// empty table, iteratively add the rule with the globally maximal gain
// until no rule improves compression. The best rule is found by an
// ECLAT-style depth-first search over all pairs of itemsets occurring
// jointly in the data, with branch-and-bound pruning via the rule-based
// upper bound rub and evaluation skipping via the quick bound qub (§5.2).
//
// As the paper observes (§6.1), the bounds are highly effective in the
// first iterations and lose power once per-rule gains shrink, so exact
// search is "most attractive when one is only interested in few rules";
// MaxRules caps the iterations for that use.
//
// The best-rule search parallelizes naturally: within one call the state
// is read-only, so the seed singleton pairs and the top-level branches of
// the depth-first search are distributed over an internal/pool worker
// pool. Workers share the incumbent best gain through a pool.Max, so the
// rub/qub pruning threshold tightens across all of them as soon as any
// worker improves it. Each worker keeps its own champion rule under the
// (gain, Rule.Compare) total order and the champions are merged under the
// same order, making the result independent of the number of workers and
// of scheduling (see the note on tie pruning at threshold()).
//
// The rub bound rub(X◇Y) = Σ_{X⊆tL} tub(tR) + Σ_{Y⊆tR} tub(tL) − L(X↔Y)
// (see exactTub) is maintained incrementally across DFS levels: extending
// a pair changes the support of only one side, so that side's tub sum is
// re-accumulated while intersecting its tidset (bitset.IntersectIntoSum)
// and the other side's sum is inherited from the parent node unchanged.
// The inherited value was accumulated over the same tidset in the same
// ascending order, so the bound — and therefore every pruning decision —
// is bit-identical to recomputing both sums from scratch at each node.

// ExactOptions configures MineExact.
type ExactOptions struct {
	// MaxRules stops after this many rules; 0 means no limit (the
	// natural MDL stopping criterion applies either way).
	MaxRules int
	// OnIteration observes each added rule and may stop the run early by
	// returning false (the partial table is returned with a nil error).
	OnIteration IterationFunc
	// DisableRub and DisableQub turn off the §5.2 pruning bounds. The
	// search then degenerates to exhaustive enumeration of occurring
	// pairs; results are identical. Used by the ablation benchmarks.
	DisableRub bool
	DisableQub bool
	// ParallelOptions sets the worker-pool size for the per-iteration
	// best-rule search; results are identical for any value.
	ParallelOptions
}

// MineExact runs TRANSLATOR-EXACT on d and returns the induced translation
// table. It is parameter-free (ExactOptions only bounds or observes it).
//
// Cancelling ctx aborts the search at the next checkpoint — the
// iteration boundary, a phase task boundary, or the periodic in-branch
// probe of the depth-first search — and returns the table mined so far
// alongside ctx.Err(). With an uncancelled context the result is
// bit-identical for every worker count and the error is nil.
//
// EXACT always runs in-process: ParallelOptions.Shards and ShardAddrs
// are ignored (the table would be the same under any shard setting).
func MineExact(ctx context.Context, d *dataset.Dataset, opt ExactOptions) (*Result, error) {
	elapsed := stopwatch()
	coder := mdl.NewCoder(d)
	s := NewState(d, coder)
	res := &Result{State: s}
	// One worker pool serves every iteration's best-rule search: the
	// per-worker states (and their per-depth DFS scratch) persist across
	// iterations, and the phases run on the session's parked workers.
	search := newExactRun(s, opt)
	var err error
	for opt.MaxRules == 0 || len(s.table.Rules) < opt.MaxRules {
		if err = ctx.Err(); err != nil {
			break
		}
		var r Rule
		var gain float64
		var ok bool
		if r, gain, ok, err = search.bestRule(ctx); err != nil || !ok || gain <= GainEpsilon {
			break
		}
		search.tub.addRule(r)
		if !res.Record(s.totals, &s.table, r, gain, opt.OnIteration) {
			break
		}
	}
	for _, se := range search.pool.States() {
		res.Work.Nodes += int64(se.ticks)
		res.Work.Pairs += se.pairs
		res.Work.RubPrunes += se.rubPrunes
		res.Work.QubSkips += se.qubSkips
	}
	res.Table = s.Table()
	res.Runtime = elapsed()
	return res, err
}

// joinedItem is one item of the joined alphabet used by the search.
type joinedItem struct {
	view dataset.View
	id   int         // id within its view
	col  *bitset.Set // tidset
	len  float64     // L(item | its view)
	pot  float64     // ordering potential Σ_{t∈supp} tub(t_opposite)
}

// exactTub holds EXACT's transaction-based bounds of §5.2: tub[v][t] =
// L(U_t|D_v), the most any rule can gain on transaction t's v side.
type exactTub struct {
	s             *State
	tub           [2][]float64
	tids, covered *bitset.Set // addRule's scratch
}

// newExactTub builds the bounds from s's U columns, item-major: each t
// gets the additions of the row-major sum Σ_{i∈U_t} L(i), in the same
// ascending item order, so each bound equals that sum bit for bit.
func newExactTub(s *State) *exactTub {
	n := s.d.Size()
	et := &exactTub{s: s, tids: bitset.New(n), covered: bitset.New(n)}
	for v := range et.tub {
		et.tub[v] = make([]float64, n)
		for i := range s.ucol[v] {
			et.add(dataset.View(v), &s.ucol[v][i], s.coder.ItemLen(dataset.View(v), i))
		}
	}
	return et
}

// add adds l to tub[v][t] for every t in tids, in ascending order.
func (et *exactTub) add(v dataset.View, tids *bitset.Set, l float64) {
	tub := et.tub[v]
	tids.ForEach(func(t int) bool {
		tub[t] += l
		return true
	})
}

// addRule adds r to the state and moves the bounds with it: t loses
// L(y) for each consequent item y that r covers in t. The covered sets
// are read before r is applied, in AddRule's direction and item order.
func (et *exactTub) addRule(r Rule) {
	if r.AppliesTo(dataset.Left) {
		et.uncover(dataset.Right, r.X, r.Y)
	}
	if r.AppliesTo(dataset.Right) {
		et.uncover(dataset.Left, r.Y, r.X)
	}
	et.s.AddRule(r)
}

// uncover subtracts L(y) from the target-view bound of every t in
// supp(ante) ∩ U_y, for each consequent item y of cons in order.
func (et *exactTub) uncover(target dataset.View, ante, cons itemset.Itemset) {
	et.s.d.SupportSetInto(et.tids, target.Opposite(), ante)
	//lint:ctxprobe-ok bounded per-rule work (|cons| kernel calls); MineExact applies between iteration checkpoints
	for _, y := range cons {
		bitset.IntersectInto(et.covered, et.tids, &et.s.ucol[target][y])
		et.add(target, et.covered, -et.s.coder.ItemLen(target, y))
	}
}

// exactRun is the cross-iteration context of one MineExact call: the
// worker pool, the per-worker search states and the structures every
// iteration's best-rule search shares. Building it once means worker
// scratch (per-depth tidsets, itemset buffers) and the parked pool
// workers are reused by all iterations.
type exactRun struct {
	s    *State
	tub  *exactTub
	opt  ExactOptions
	pool *pool.Pool[*exactSearch]
	// ctx is the context of the current bestRule call, installed before
	// the phases are submitted (the phase barrier publishes it to the
	// workers) and probed periodically inside the DFS.
	ctx context.Context

	// items is rebuilt (re-sorted by potential) every iteration; the
	// slice itself is reused, as are its per-view partitions. All worker
	// states read them through the run.
	items  []joinedItem
	lefts  []*joinedItem
	rights []*joinedItem

	// shared is the cross-worker incumbent gain, Reset between
	// iterations; nil when serial.
	shared *pool.Max

	full, fullY, fullXY *bitset.Set // root tidsets, shared read-only
}

// exactSearch carries one worker's share of a best-rule search.
type exactSearch struct {
	*exactRun

	// Per-depth scratch, so the DFS allocates only when it goes deeper
	// than ever before — across all iterations of the run.
	levels []levelBufs
	// Scratch singletons for the seed pass.
	sx, sy [1]int

	// The champion rule. best.X and best.Y alias bestX and bestY, a pair
	// of per-worker buffers improvements copy into in place, so taking
	// the lead does not allocate; bestRule clones the merged winner once
	// per iteration before it escapes to the caller.
	best         Rule
	bestX, bestY itemset.Itemset
	bestGain     float64
	found        bool

	// Cancellation probe state: ticks counts visited DFS nodes, and
	// stopped latches once the run's context reports cancellation, so
	// the recursion unwinds without re-probing at every level.
	ticks   uint
	stopped bool

	// The worker's remaining work counts over the run, for Result.Work:
	// pairs evaluated, rub prunes and qub skips.
	pairs, rubPrunes, qubSkips int64
}

// exactCtxProbeMask gates the in-branch cancellation probe of the
// branch-and-bound DFS: one ctx.Err() call per 1024 extensions.
const exactCtxProbeMask = 1<<10 - 1

type levelBufs struct {
	xy   *bitset.Set     // joint support of the extended pair
	side *bitset.Set     // per-view support of the extended side
	set  itemset.Itemset // the extended itemset at this depth
}

func (se *exactSearch) bufs(depth int) *levelBufs {
	for len(se.levels) <= depth {
		n := se.s.d.Size()
		se.levels = append(se.levels, levelBufs{xy: bitset.New(n), side: bitset.New(n)})
	}
	return &se.levels[depth]
}

// threshold returns the tightest known incumbent gain, against which the
// rub/qub bounds prune. Pruning is strict (bound < threshold): a subtree
// whose bound merely equals the incumbent may still hold an equal-gain
// rule that wins the Rule.Compare tie-break, and visiting those keeps the
// reported rule identical whether the threshold was raised by this worker
// or another one — i.e. independent of worker count and scheduling.
func (se *exactSearch) threshold() float64 {
	if se.shared == nil {
		return se.bestGain
	}
	return se.shared.Load()
}

// newExactRun builds the cross-iteration search context: the worker
// pool (sized once — the set of occurring items never changes within
// one MineExact call), the shared incumbent, and the root tidsets.
func newExactRun(s *State, opt ExactOptions) *exactRun {
	d := s.d
	occurring := 0
	for _, v := range []dataset.View{dataset.Left, dataset.Right} {
		cols := d.Columns(v)
		for i := 0; i < d.Items(v); i++ {
			if !cols[i].Empty() {
				occurring++
			}
		}
	}
	run := &exactRun{s: s, tub: newExactTub(s), opt: opt}
	workers := opt.workerCount(occurring)
	if workers > 1 {
		run.shared = new(pool.Max)
	}
	run.pool = pool.NewOn(opt.runtime(), workers, func(int) *exactSearch {
		return &exactSearch{exactRun: run}
	})
	n := d.Size()
	run.full = bitset.New(n)
	run.full.Fill()
	run.fullY, run.fullXY = run.full.Clone(), run.full.Clone()
	return run
}

// bestRule returns argmax_r Δ_{D,T}(r) over all rules whose X∪Y occurs in
// the data, with a deterministic tie-break. ok is false when the dataset
// admits no rule at all. The search runs on the run's worker pool in two
// phases — singleton seeding, then one task per top-level DFS branch
// (dynamic assignment: branch costs are heavily skewed toward early
// items) — followed by a champion merge under the (gain, Rule.Compare)
// total order. A cancelled ctx aborts both phases and returns ctx.Err();
// the partial champions are discarded.
func (run *exactRun) bestRule(ctx context.Context) (Rule, float64, bool, error) {
	s, opt := run.s, run.opt
	d := s.d
	// Rebuild the item order: the potentials depend on the current
	// state, so they change as rules are added. The slice is reused.
	items := run.items[:0]
	//lint:ctxprobe-ok bounded per-iteration work (one weighted sum per item); the phases below probe ctx
	for _, v := range []dataset.View{dataset.Left, dataset.Right} {
		cols := d.Columns(v)
		//lint:ctxprobe-ok bounded per-iteration work (one weighted sum per item); the phases below probe ctx
		for i := 0; i < d.Items(v); i++ {
			if cols[i].Empty() {
				continue // items that never occur cannot enter a rule
			}
			items = append(items, joinedItem{
				view: v,
				id:   i,
				col:  cols[i],
				len:  s.coder.ItemLen(v, i),
				pot:  bitset.WeightedSum(cols[i], run.tub.tub[v.Opposite()]),
			})
		}
	}
	// Descending by potential; deterministic tie-break by view then id.
	// slices.SortFunc rather than sort.Slice: the generic sort keeps the
	// per-iteration re-sort allocation-free.
	slices.SortFunc(items, func(a, b joinedItem) int {
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
	run.items = items

	// Reset the per-iteration search state; worker scratch persists.
	run.ctx = ctx
	if run.shared != nil {
		run.shared.Reset()
	}
	for _, se := range run.pool.States() {
		se.best, se.bestGain, se.found = Rule{}, 0, false
		se.stopped = false
	}

	// Root values of the incremental rub sums: both sides start at full
	// support, so the sums cover every transaction of the target view.
	var rootRX, rootLY float64
	if !opt.DisableRub {
		rootRX = bitset.WeightedSum(run.full, run.tub.tub[dataset.Right])
		rootLY = bitset.WeightedSum(run.full, run.tub.tub[dataset.Left])
	}

	lefts, rights := run.splitViews(items)
	// Seed phase: each task is one left singleton crossed with every
	// right singleton. The resulting incumbent is a true gain, so pruning
	// against it is sound — it just starts the DFS with a competitive
	// threshold instead of zero, which the tub-based item order alone
	// cannot guarantee. Exactness is unaffected: the DFS still visits
	// every candidate subtree whose bound reaches the incumbent.
	if err := run.pool.RunCtx(ctx, len(lefts), func(se *exactSearch, i int) {
		for _, ri := range rights {
			if !lefts[i].col.Intersects(ri.col) {
				continue // the pair must occur in the data
			}
			se.seedPair(lefts[i], ri)
		}
	}); err != nil {
		return Rule{}, 0, false, err
	}
	// DFS phase: each task is one top-level branch (extend the empty
	// pair with item k, then search positions > k). The root tidsets are
	// only read, so all workers share them.
	if err := run.pool.RunCtx(ctx, len(items), func(se *exactSearch, k int) {
		se.extend(nil, nil, run.full, run.fullY, run.fullXY, k, 0, 0, 0, rootRX, rootLY)
	}); err != nil {
		return Rule{}, 0, false, err
	}

	// Champion merge under the same (gain, Rule.Compare) total order the
	// workers use internally, so the result is bit-identical to the
	// serial search.
	var best Rule
	bestGain := 0.0
	found := false
	for _, se := range run.pool.States() {
		if !se.found {
			continue
		}
		if !found || se.bestGain > bestGain ||
			(se.bestGain == bestGain && se.best.Compare(best) < 0) {
			best, bestGain, found = se.best, se.bestGain, true
		}
	}
	if !found {
		return Rule{}, 0, false, nil
	}
	// The winner still aliases its worker's champion buffers, which the
	// next iteration overwrites; clone once here — the only per-iteration
	// champion allocation left.
	return Rule{X: best.X.Clone(), Dir: best.Dir, Y: best.Y.Clone()}, bestGain, true, nil
}

// bestRule runs a single best-rule search on a transient run context,
// for one-shot callers (tests, benchmarks); MineExact reuses one run
// across its iterations instead.
func bestRule(s *State, opt ExactOptions) (Rule, float64, bool) {
	r, gain, ok, _ := newExactRun(s, opt).bestRule(context.Background())
	return r, gain, ok
}

// splitViews partitions the search items by view, preserving the global
// potential order within each side. The partition slices live on the run
// and are reused by every iteration.
func (run *exactRun) splitViews(items []joinedItem) (lefts, rights []*joinedItem) {
	run.lefts, run.rights = run.lefts[:0], run.rights[:0]
	for i := range items {
		if items[i].view == dataset.Left {
			run.lefts = append(run.lefts, &items[i])
		} else {
			run.rights = append(run.rights, &items[i])
		}
	}
	return run.lefts, run.rights
}

// seedPair evaluates the singleton pair ({li}, {ri}) through per-search
// scratch itemsets (evaluate clones before keeping anything).
func (se *exactSearch) seedPair(li, ri *joinedItem) {
	se.sx[0], se.sy[0] = li.id, ri.id
	se.evaluate(itemset.Itemset(se.sx[:]), itemset.Itemset(se.sy[:]),
		li.col, ri.col, li.len, ri.len)
}

// dfs extends the pair (x, y) with items at positions ≥ start in the
// global order. tidX and tidY are the supports of x and y within their
// own views; tidXY is their intersection (the joint support of x ∪ y).
// lenX and lenY carry L(x|D_L) and L(y|D_R) incrementally; sumRX and
// sumLY carry the rub partial sums Σ_{t∈tidX} tub_R(t) and
// Σ_{t∈tidY} tub_L(t); depth is the recursion level used for scratch
// buffers.
func (se *exactSearch) dfs(x, y itemset.Itemset, tidX, tidY, tidXY *bitset.Set, start, depth int, lenX, lenY, sumRX, sumLY float64) {
	for k := start; k < len(se.items); k++ {
		se.extend(x, y, tidX, tidY, tidXY, k, depth, lenX, lenY, sumRX, sumLY)
	}
}

// extend grows the pair (x, y) by the single item at position k, evaluates
// the result when both sides are non-empty, and recurses into extensions
// at positions > k. Only one side's support shrinks, so its tub partial
// sum is re-accumulated while intersecting (one fused pass) and the other
// side's sum is inherited unchanged.
func (se *exactSearch) extend(x, y itemset.Itemset, tidX, tidY, tidXY *bitset.Set, k, depth int, lenX, lenY, sumRX, sumLY float64) {
	// Cancellation probe: once the run's context is cancelled the whole
	// recursion unwinds via the latched flag. The champions this search
	// has accumulated are discarded by bestRule, so cutting mid-branch
	// cannot leak a schedule-dependent result.
	if se.stopped {
		return
	}
	if se.ticks++; se.ticks&exactCtxProbeMask == 0 && se.ctx.Err() != nil {
		se.stopped = true
		return
	}
	it := se.items[k]
	bufs := se.bufs(depth)
	// The joint support of the extended pair.
	childXY := bufs.xy
	bitset.IntersectInto(childXY, tidXY, it.col)
	if childXY.Empty() {
		return // X∪Y must occur in the data (§5.2)
	}
	// The extended side lives in this depth's scratch itemset: siblings at
	// the same depth overwrite it after the subtree below has returned,
	// and evaluate clones before keeping a rule.
	bufs.set = insertItemInto(bufs.set, x, y, it)
	useRub := !se.opt.DisableRub
	var cx, cy itemset.Itemset
	var ctX, ctY *bitset.Set
	clenX, clenY := lenX, lenY
	csumRX, csumLY := sumRX, sumLY
	if it.view == dataset.Left {
		cx, cy = bufs.set, y
		ctX = bufs.side
		if useRub {
			csumRX = bitset.IntersectIntoSum(ctX, tidX, it.col, se.tub.tub[dataset.Right])
		} else {
			bitset.IntersectInto(ctX, tidX, it.col)
		}
		ctY = tidY
		clenX += it.len
	} else {
		cx, cy = x, bufs.set
		ctX = tidX
		ctY = bufs.side
		if useRub {
			csumLY = bitset.IntersectIntoSum(ctY, tidY, it.col, se.tub.tub[dataset.Left])
		} else {
			bitset.IntersectInto(ctY, tidY, it.col)
		}
		clenY += it.len
	}
	if useRub {
		// rub(X◇Y) = Σ_{X⊆tL} tub(tR) + Σ_{Y⊆tR} tub(tL) − L(X↔Y),
		// antitone under extension, so it prunes the whole subtree.
		rub := csumRX + csumLY - (clenX + clenY + 1)
		if rub < se.threshold() {
			se.rubPrunes++
			return
		}
	}
	if len(cx) > 0 && len(cy) > 0 {
		se.evaluate(cx, cy, ctX, ctY, clenX, clenY)
	}
	se.dfs(cx, cy, ctX, ctY, childXY, k+1, depth+1, clenX, clenY, csumRX, csumLY)
}

// insertItemInto writes (x or y) ∪ {it.id} into dst, reusing its capacity:
// the side matching it.view is extended (it.id may fall anywhere, since
// the global search order mixes the two views arbitrarily).
func insertItemInto(dst itemset.Itemset, x, y itemset.Itemset, it joinedItem) itemset.Itemset {
	s := x
	if it.view == dataset.Right {
		s = y
	}
	i := sort.SearchInts(s, it.id)
	dst = append(dst[:0], s[:i]...)
	dst = append(dst, it.id)
	return append(dst, s[i:]...)
}

// evaluate computes the exact gains of the three rules formed by (x, y)
// and updates the incumbent. x and y may live in scratch buffers; the
// champion is copied into the worker's preallocated buffers, not cloned.
func (se *exactSearch) evaluate(x, y itemset.Itemset, tidX, tidY *bitset.Set, lenX, lenY float64) {
	s := se.s
	lenBi := lenX + lenY + 1
	lenUni := lenX + lenY + 2
	if !se.opt.DisableQub {
		// qub(X◇Y) = |supp(X)|·L(Y) + |supp(Y)|·L(X) − L(X↔Y) bounds all
		// three directions; skip the exact gain computation if hopeless.
		if pathQub(tidX.Count(), tidY.Count(), lenX, lenY) < se.threshold() {
			se.qubSkips++
			return
		}
	}
	se.pairs++
	gainF := s.gainDir(dataset.Left, tidX, y)
	gainB := s.gainDir(dataset.Right, tidY, x)
	for _, cand := range [3]struct {
		dir  Direction
		gain float64
	}{
		{Forward, gainF - lenUni},
		{Backward, gainB - lenUni},
		{Both, gainF + gainB - lenBi},
	} {
		r := Rule{X: x, Dir: cand.dir, Y: y}
		if cand.gain > se.bestGain ||
			(se.found && cand.gain == se.bestGain && r.Compare(se.best) < 0) {
			se.bestX = append(se.bestX[:0], x...)
			se.bestY = append(se.bestY[:0], y...)
			se.best = Rule{X: se.bestX, Dir: cand.dir, Y: se.bestY}
			se.bestGain = cand.gain
			se.found = true
			if se.shared != nil {
				se.shared.Raise(cand.gain)
			}
		}
	}
}
