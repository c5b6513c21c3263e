package core

import (
	"context"
	"slices"
	"sort"

	"twoview/internal/bitset"
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
// Scoring is incremental (selectCache). The quick bound qub is
// state-free, so the candidates it admits are the same every round and
// are filtered once per run. For each admitted candidate the cache keeps
// both rule lengths and, per rule direction and consequent item, the
// integer gainDir weighs by the item's length (State.coverDelta). Adding
// a rule changes the U and E columns only at the consequent items of the
// directions it applies, so a round asks the cover to recount only the
// (candidate, item) pairs whose item the previous round touched (every
// pair in the first round; the local cover counts each distinct
// (antecedent, item) pair among them once), then folds the cached
// integers in consequent order with gainDir's arithmetic (foldGain).
// The scored gains are therefore bit-identical to evaluating every rule
// from scratch, which selectalg_test.go checks in every round.
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
			cache.dirty.Touch(sr.Rule)
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

// selectCache is MineSelect's incremental scoring state (see the file
// comment). It lives in miningScratch, so a session's repeated runs
// reuse its storage; reset prepares it for a run.
type selectCache struct {
	slots []selectSlot
	// delta holds, per slot, the cached cover delta of each consequent
	// item: the items of Y (the X→Y direction, target view Right), then
	// those of X (X←Y, target view Left) — the layout of Cover.Score.
	delta []int32
	// dirty marks, per target view, the items whose U/E columns changed
	// since the cached deltas were counted.
	dirty DirtyItems
	// post lists, per target view and consequent item, the slots whose
	// candidate has the item on that view's side: the slots a dirty
	// item makes stale.
	post [2][][]int32
	// isStale marks the current round's stale slots while they are
	// collected.
	isStale bitset.Set
	// The current round's stale slots (those with a dirty consequent
	// item), their candidate indices and their delta slices.
	stale []int
	idx   []int32
	views [][]int32
	// recounts sums, over the run, the pairs score asks the cover to
	// recount, for Work.Recounts.
	recounts int64
}

// selectSlot is the cache entry of one candidate that passed the qub
// filter.
type selectSlot struct {
	cand          int32   // index into the candidates
	off           int     // start of the candidate's deltas in selectCache.delta
	lenUni, lenBi float64 // L(X→Y) = L(X←Y), and L(X↔Y)
	gainF, gainB  float64 // Δ_{D|T} of the X→Y and X←Y directions
}

// reset prepares the cache for a run over cands: it keeps the
// candidates whose qub verdict ok holds (see qubVerdicts), caches their
// rule lengths, indexes them by consequent item, and marks every item
// dirty.
func (c *selectCache) reset(d *dataset.Dataset, coder *mdl.Coder, cands []Candidate, ok []bool) {
	c.slots = c.slots[:0]
	n := 0
	for ci := range cands {
		if !ok[ci] {
			continue // qub bounds all three directions: never evaluated
		}
		cd := &cands[ci]
		c.slots = append(c.slots, selectSlot{
			cand:   int32(ci),
			off:    n,
			lenUni: coder.RuleLen(cd.X, cd.Y, false),
			lenBi:  coder.RuleLen(cd.X, cd.Y, true),
		})
		n += len(cd.Y) + len(cd.X)
	}
	c.delta = slices.Grow(c.delta[:0], n)[:n]
	for v := range c.post {
		items := d.Items(dataset.View(v))
		c.post[v] = slices.Grow(c.post[v][:0], items)[:items]
		for it := range c.post[v] {
			c.post[v][it] = c.post[v][it][:0]
		}
	}
	for i := range c.slots {
		cd := &cands[c.slots[i].cand]
		for _, y := range cd.Y {
			c.post[dataset.Right][y] = append(c.post[dataset.Right][y], int32(i))
		}
		for _, x := range cd.X {
			c.post[dataset.Left][x] = append(c.post[dataset.Left][x], int32(i))
		}
	}
	c.isStale.Reset(len(c.slots))
	c.dirty.Fill(d)
	c.recounts = 0
}

// score has the cover recount the dirty (candidate, item) pairs, refolds
// the gains of the slots it recounted, and leaves in top the k best
// rules with gain above GainEpsilon, exactly what sort-then-truncate
// over scoring every candidate from scratch gives. It leaves no item
// dirty; dirty.Touch marks the items that adding a rule changes.
func (c *selectCache) score(ctx context.Context, cv Cover, coder *mdl.Coder, cands []Candidate, top *topRules, k int) error {
	// The stale slots, found through the postings of the dirty items
	// and collected in slot order.
	for _, v := range [2]dataset.View{dataset.Left, dataset.Right} {
		c.dirty[v].ForEach(func(it int) bool {
			c.recounts += int64(len(c.post[v][it]))
			for _, i := range c.post[v][it] {
				c.isStale.Add(int(i))
			}
			return true
		})
	}
	c.stale, c.idx, c.views = c.stale[:0], c.idx[:0], c.views[:0]
	c.isStale.ForEach(func(i int) bool {
		sl := &c.slots[i]
		cd := &cands[sl.cand]
		c.stale = append(c.stale, i)
		c.idx = append(c.idx, sl.cand)
		c.views = append(c.views, c.delta[sl.off:sl.off+len(cd.Y)+len(cd.X)])
		return true
	})
	c.isStale.Clear()
	if err := cv.Score(ctx, c.idx, &c.dirty, c.views); err != nil {
		return err
	}
	c.dirty.Clear()
	for j, i := range c.stale {
		sl := &c.slots[i]
		sl.gainF, sl.gainB = ruleGains(coder, &cands[sl.cand], c.views[j])
	}
	top.reset(k)
	for i := range c.slots {
		sl := &c.slots[i]
		cd := &cands[sl.cand]
		gains := [3]float64{sl.gainF - sl.lenUni, sl.gainB - sl.lenUni, sl.gainF + sl.gainB - sl.lenBi}
		for dir, g := range gains {
			if g > GainEpsilon {
				top.offer(scoredRule{Rule{X: cd.X, Dir: Directions[dir], Y: cd.Y}, g})
			}
		}
	}
	return nil
}
