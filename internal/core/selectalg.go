package core

import (
	"context"
	"math"
	"slices"
	"sort"

	"twoview/internal/dataset"
	"twoview/internal/mdl"
)

// This file implements TRANSLATOR-SELECT(k) (Algorithm 3): in each round,
// score every rule constructible from the candidate set (three directions
// per candidate itemset), take the k rules with the highest gain, and add
// them one by one, discarding rules whose itemsets overlap the items used
// by a rule already added in the same round. Rounds repeat until no rule
// improves compression.
//
// The driver below is the only SELECT: it runs unchanged against the
// local State and against internal/shard's supervised run, both behind
// the Cover interface, and does every float operation itself.
//
// Scoring is incremental and lazy (selectCache). The quick bound qub
// is state-free, so the candidates it admits (the slots) are filtered
// once per run. Per slot the cache keeps both rule lengths and, per
// direction and consequent item y, the cover delta gainDir weighs by
// L(y): δ = |t ∩ U_y| − |t \ supp(y) \ E_y| (State.coverDelta). A rule
// changes U and E only at the consequent items of the directions it
// applies. A slot none of whose items changed since its last count is
// fresh, and its gains are exact; the others are stale. Every ranked
// gain is folded from counted deltas with gainDir's arithmetic
// (foldGain), so it equals the from-scratch gain bit for bit, which
// selectalg_test.go checks in every round.
//
// The bound. U only shrinks and E only grows, so a delta δ₀ counted
// when |E_y| was e₀ is now at most δ₀ + (|E_y| − e₀). The cache keeps
// e₀ beside each delta and reads |E_y| from the CoverTotals of the last
// Apply. A refold is foldGain's multiply-adds over δ₀ + (|E_y| − e₀),
// in consequent order with the same zero skip, then the same
// gainF − L(X→Y), gainB − L(X→Y) and gainF + gainB − L(X↔Y), the
// largest of which is the slot's bound. Each term is an integer at
// least the true one, times L(y) ≥ 0, and correctly rounded + and × are
// monotone, so each direction's bound dominates its exact gain bit for
// bit, with no slack. By the same monotonicity a bound only grows as E
// does, and at a count it equals the slot's best gain; so a slot whose
// items changed since its last bound is refolded only when that bound
// is below τ. (A zero-support item's infinite L(y) can make a bound
// NaN; a NaN bound is never skipped.)
//
// A round. τ is the k-th best gain among the fresh slots (GainEpsilon
// while they offer fewer than k rules). Every stale slot whose bound is
// at least τ, ties included, is counted in one Cover.Score batch, and
// the top k is built from the fresh and the counted slots. A skipped
// slot's gains are all below τ, so k fresh rules rank before each of
// them (or, at τ = GainEpsilon, they fail the GainEpsilon filter): it
// cannot reach the top k, and it stays stale with its old deltas. The
// batch's mask marks every item touched since the oldest count in the
// batch, so the deltas Score leaves alone are exact for all its slots.
//
// The Line-8 re-check (the rule must still improve compression against
// the current table) reuses the scored gain. That is exact, not a
// heuristic. A rule is only added if its X and Y are disjoint from every
// item already used in this round, and the rules added earlier in the
// round changed U and E only at items of their own X and Y. A rule that
// passes the overlap filter therefore reads exactly the round-start
// state at its turn in the walk. Its gain against that state, composed
// direction by direction as (0 + a) + b − c, equals the scored a + b − c
// bit for bit. Scored rules all have gain above GainEpsilon, so the
// re-check never rejects a rule that passes the filter.

// SelectOptions configures MineSelect.
type SelectOptions struct {
	// K is the number of rules selected per round; the paper evaluates
	// k=1 and k=25. Values < 1 mean 1.
	K int
	// MaxRules stops after this many rules in total; 0 means no limit.
	MaxRules int
	// OnIteration observes each added rule and may stop the run early by
	// returning false (the partial table is returned with a nil error).
	OnIteration IterationFunc
	// ParallelOptions sets the worker-pool size for per-round scoring;
	// results are identical for any value.
	ParallelOptions
}

// scoredRule is a rule SELECT considers in a round, with its gain
// against the round-start table.
type scoredRule struct {
	Rule Rule
	Gain float64
}

// before is the order in which SELECT ranks scored rules: gain
// descending, ties broken by Rule.Compare. It is total over distinct
// rules.
func (a scoredRule) before(b scoredRule) bool {
	if a.Gain != b.Gain {
		return a.Gain > b.Gain
	}
	return a.Rule.Compare(b.Rule) < 0
}

// MineSelect runs TRANSLATOR-SELECT(k) over the given candidates, on the
// cover opt.ParallelOptions selects (see MineSelectOn).
//
// Cancelling ctx aborts the run at the next checkpoint (a round
// boundary or a chunk boundary inside the scoring phase) and returns
// the table mined so far alongside ctx.Err(). With an uncancelled
// context the result is bit-identical for every worker count and shard
// layout, and the error is nil.
func MineSelect(ctx context.Context, d *dataset.Dataset, cands []Candidate, opt SelectOptions) (*Result, error) {
	elapsed := stopwatch()
	c, err := NewCover(ctx, d, cands, opt.ParallelOptions)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	res, err := MineSelectOn(ctx, c, d, cands, opt)
	res.Work.Cells = countedCells(c)
	res.Runtime = elapsed()
	return res, err
}

// MineSelectOn runs TRANSLATOR-SELECT(k) against the cover c of d's
// empty table, built over cands. The caller owns c.
func MineSelectOn(ctx context.Context, c Cover, d *dataset.Dataset, cands []Candidate, opt SelectOptions) (*Result, error) {
	if opt.K < 1 {
		opt.K = 1
	}
	coder := mdl.NewCoder(d)
	res := &Result{}
	var table Table

	// All rounds reuse one set of session-pooled buffers: the scoring
	// cache, the scored-rule slice and the per-round used-item masks all
	// reach a steady state where rounds allocate nothing.
	sc := opt.getScratch()
	cache := &sc.cache
	sc.qubOK = qubVerdicts(coder, c, d, cands, sc.qubOK)
	cache.reset(d, coder, cands, sc.qubOK)
	usedL, usedR := &sc.usedL, &sc.usedR
	var err error
	stopped := false
	for !stopped {
		if err = ctx.Err(); err != nil {
			break
		}
		if opt.MaxRules > 0 && len(table.Rules) >= opt.MaxRules {
			break
		}
		// Line 3: select the k rules with the highest Δ_{D,T} among all
		// rules constructible from the candidates.
		res.Work.Rounds++
		if err = cache.score(ctx, c, coder, cands, &sc.top, opt.K); err != nil {
			break
		}
		top := sc.top.rules
		if len(top) == 0 {
			break
		}

		// Lines 5-10: add the selected rules, skipping rules whose
		// itemsets overlap items already used in this round (their gain
		// has changed and they may no longer belong to the top-k). The
		// used items are tracked as per-view bitmasks, reset (not
		// reallocated) each round. The first selected rule is always
		// added, so every round makes progress.
		usedL.Reset(d.Items(dataset.Left))
		usedR.Reset(d.Items(dataset.Right))
		for _, sr := range top {
			if opt.MaxRules > 0 && len(table.Rules) >= opt.MaxRules {
				break
			}
			if anyIn(sr.Rule.X, usedL) || anyIn(sr.Rule.Y, usedR) {
				continue
			}
			// Line 8: sr.Gain is the rule's gain against the current
			// table (see the file comment).
			var totals *CoverTotals
			if totals, err = c.Apply(sr.Rule); err != nil {
				break
			}
			table.Rules = append(table.Rules, sr.Rule)
			cache.touch(sr.Rule, totals)
			if !res.Record(totals, &table, sr.Rule, sr.Gain, opt.OnIteration) {
				stopped = true
				break // OnIteration asked for an early stop
			}
			for _, it := range sr.Rule.X {
				usedL.Add(it)
			}
			for _, it := range sr.Rule.Y {
				usedR.Add(it)
			}
		}
		if err != nil {
			break
		}
	}
	res.Work.Recounts = cache.recounts
	opt.putScratch(sc)
	res.Table = table.clipped()
	res.State = c.State()
	return res, err
}

// topRules keeps the k best rules offered to it, sorted in SELECT's
// order (scoredRule.before): sort-then-truncate without holding the
// rest. A rule is inserted only if it ranks before the current k-th.
type topRules struct {
	k     int
	rules []scoredRule
}

// reset empties t for a round that selects k ≥ 1 rules.
func (t *topRules) reset(k int) {
	t.k, t.rules = k, t.rules[:0]
}

// offer inserts sr if it ranks among the k best offered so far.
func (t *topRules) offer(sr scoredRule) {
	n := len(t.rules)
	if n == t.k {
		if !sr.before(t.rules[n-1]) {
			return
		}
		n-- // the k-th is evicted
	} else {
		t.rules = append(t.rules, scoredRule{})
	}
	j := sort.Search(n, func(j int) bool { return sr.before(t.rules[j]) })
	copy(t.rules[j+1:n+1], t.rules[j:n])
	t.rules[j] = sr
}

// selectCache is MineSelect's incremental, lazy scoring state (see the
// file comment). It lives in miningScratch, so a session's repeated runs
// reuse its storage; reset prepares it for a run.
type selectCache struct {
	slots []selectSlot
	// delta holds, per slot, the cached cover delta of each consequent
	// item: the items of Y (the X→Y direction, target view Right), then
	// those of X (X←Y, target view Left) — the layout of Cover.Score.
	// Beside each, item names the item and seen holds its e₀.
	delta, item, seen []int32
	// errs[v][y] is |E_y| now: the last Apply's totals, or noErrs.
	errs, noErrs [2][]int32
	// dirty marks, per target view, the items the last round's rules
	// touched; touched[v][y] is the last round that touched y (0: none).
	dirty   DirtyItems
	touched [2][]int32
	// post lists, per target view and consequent item, the slots whose
	// candidate has the item on that view's side.
	post  [2][][]int32
	round int32
	// The round's stale slots, its batch (the stale slots whose bound
	// reaches τ) with their candidates and deltas, and its Score mask.
	stale, batch []int
	idx          []int32
	views        [][]int32
	mask         DirtyItems
	// recounts sums the pairs score asks the cover to recount.
	recounts int64
}

// selectSlot is the cache entry of one candidate that passed the qub
// filter.
type selectSlot struct {
	cand          int32   // index into the candidates
	counted       int32   // the round of the last count (0: never)
	off, ny, n    int32   // the deltas are delta[off:off+n], Y's the first ny
	stale         bool    // an item was touched since the last count
	outdated      bool    // an item was touched since the last count or refold
	lenUni, lenBi float64 // L(X→Y) = L(X←Y), and L(X↔Y)
	gainF, gainB  float64 // Δ_{D|T} of the X→Y and X←Y directions, exact while fresh
	bound         float64 // the best gain at the last count, or the last refold
}

// reset prepares the cache for a run over cands: it keeps the
// candidates whose qub verdict ok holds (see qubVerdicts), caches their
// rule lengths, indexes them by consequent item, and leaves every slot
// stale with an infinite bound, so the first round counts them all.
func (c *selectCache) reset(d *dataset.Dataset, coder *mdl.Coder, cands []Candidate, ok []bool) {
	for v := range c.post {
		items := d.Items(dataset.View(v))
		c.post[v] = slices.Grow(c.post[v][:0], items)[:items]
		for it := range c.post[v] {
			c.post[v][it] = c.post[v][it][:0]
		}
		c.touched[v], c.noErrs[v] = zeroed(c.touched[v], items), zeroed(c.noErrs[v], items)
		c.dirty[v].Reset(items)
		c.mask[v].Reset(items)
	}
	c.slots, c.item = c.slots[:0], c.item[:0]
	for ci := range cands {
		if !ok[ci] {
			continue // qub bounds all three directions: never evaluated
		}
		cd, i := &cands[ci], int32(len(c.slots))
		c.slots = append(c.slots, selectSlot{
			cand:   int32(ci),
			off:    int32(len(c.item)),
			ny:     int32(len(cd.Y)),
			n:      int32(len(cd.Y) + len(cd.X)),
			lenUni: coder.RuleLen(cd.X, cd.Y, false),
			lenBi:  coder.RuleLen(cd.X, cd.Y, true),
			bound:  math.Inf(1),
			stale:  true,
		})
		for _, y := range cd.Y {
			c.item = append(c.item, int32(y))
			c.post[dataset.Right][y] = append(c.post[dataset.Right][y], i)
		}
		for _, x := range cd.X {
			c.item = append(c.item, int32(x))
			c.post[dataset.Left][x] = append(c.post[dataset.Left][x], i)
		}
	}
	c.delta, c.seen = zeroed(c.delta, len(c.item)), zeroed(c.seen, len(c.item))
	c.errs, c.round, c.recounts = c.noErrs, 0, 0
}

// zeroed returns s resized to n zeros, reusing its storage.
func zeroed(s []int32, n int) []int32 {
	s = slices.Grow(s[:0], n)[:n]
	clear(s)
	return s
}

// touch records that the cover, now at totals, applied r.
func (c *selectCache) touch(r Rule, totals *CoverTotals) {
	c.dirty.Touch(r)
	c.errs = totals.itemErrs
}

// score leaves in top the k best rules with gain above GainEpsilon,
// exactly what sort-then-truncate over scoring every candidate from
// scratch gives: it ranks the fresh slots, then counts and ranks the
// stale slots whose bound reaches τ (see the file comment).
func (c *selectCache) score(ctx context.Context, cv Cover, coder *mdl.Coder, cands []Candidate, top *topRules, k int) error {
	c.round++
	for _, v := range [2]dataset.View{dataset.Left, dataset.Right} {
		c.dirty[v].ForEach(func(it int) bool {
			c.touched[v][it] = c.round - 1
			for _, i := range c.post[v][it] {
				c.slots[i].stale, c.slots[i].outdated = true, true
			}
			return true
		})
	}
	c.dirty.Clear()

	top.reset(k)
	c.stale = c.stale[:0]
	for i := range c.slots {
		if sl := &c.slots[i]; sl.stale {
			c.stale = append(c.stale, i)
		} else {
			sl.offer(top, &cands[sl.cand])
		}
	}
	tau := GainEpsilon
	if len(top.rules) == k {
		tau = top.rules[k-1].Gain
	}
	c.batch, c.idx, c.views = c.batch[:0], c.idx[:0], c.views[:0]
	oldest := c.round
	for _, i := range c.stale {
		sl := &c.slots[i]
		if sl.outdated && sl.bound < tau {
			c.refold(coder, sl)
		}
		if !(sl.bound < tau) {
			c.batch = append(c.batch, i)
			c.idx = append(c.idx, sl.cand)
			c.views = append(c.views, c.delta[sl.off:sl.off+sl.n])
			oldest = min(oldest, sl.counted)
		}
	}
	// The mask: every item touched since the oldest count in the batch,
	// so that each slot's unmasked deltas are still exact.
	for v := range c.mask {
		c.mask[v].Clear()
		for it, r := range c.touched[v] {
			if r >= oldest {
				c.mask[v].Add(it)
			}
		}
	}
	if err := cv.Score(ctx, c.idx, &c.mask, c.views); err != nil {
		return err
	}
	for j, i := range c.batch {
		sl := &c.slots[i]
		cd := &cands[sl.cand]
		sl.gainF, sl.gainB = ruleGains(coder, cd, c.views[j])
		sl.counted, sl.stale, sl.outdated = c.round, false, false
		sl.bound = max(sl.gainF-sl.lenUni, sl.gainB-sl.lenUni, sl.gainF+sl.gainB-sl.lenBi)
		for at := sl.off; at < sl.off+sl.n; at++ {
			v := dataset.Left
			if at < sl.off+sl.ny {
				v = dataset.Right
			}
			if c.touched[v][c.item[at]] >= oldest {
				c.recounts++ // the mask marks the item
			}
			c.seen[at] = c.errs[v][c.item[at]]
		}
		sl.offer(top, cd)
	}
	return nil
}

// refold sets sl.bound from its cached deltas and its items' error
// growth since their count (see the file comment).
func (c *selectCache) refold(coder *mdl.Coder, sl *selectSlot) {
	y, x, end := sl.off, sl.off+sl.ny, sl.off+sl.n
	gainF := foldBound(coder, dataset.Right, c.item[y:x], c.delta[y:x], c.seen[y:x], c.errs[dataset.Right])
	gainB := foldBound(coder, dataset.Left, c.item[x:end], c.delta[x:end], c.seen[x:end], c.errs[dataset.Left])
	sl.bound, sl.outdated = max(gainF-sl.lenUni, gainB-sl.lenUni, gainF+gainB-sl.lenBi), false
}

// foldBound is foldGain over the bounded deltas δ₀ + (|E_y| − e₀) of
// one direction's consequent items, all of target view v: the same
// multiply-adds in the same order, with the same zero skip.
func foldBound(coder *mdl.Coder, v dataset.View, items, delta, seen, errs []int32) float64 {
	gain := 0.0
	for j, y := range items {
		if b := delta[j] + errs[y] - seen[j]; b != 0 {
			gain += coder.ItemLen(v, int(y)) * float64(b)
		}
	}
	return gain
}

// offer offers top the slot's rules with gain above GainEpsilon.
func (sl *selectSlot) offer(top *topRules, cd *Candidate) {
	gains := [3]float64{sl.gainF - sl.lenUni, sl.gainB - sl.lenUni, sl.gainF + sl.gainB - sl.lenBi}
	for dir, g := range gains {
		if g > GainEpsilon {
			top.offer(scoredRule{Rule{X: cd.X, Dir: Directions[dir], Y: cd.Y}, g})
		}
	}
}
