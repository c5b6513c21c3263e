package core

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"twoview/internal/bitset"
	"twoview/internal/dataset"
	"twoview/internal/itemset"
	"twoview/internal/mdl"
	"twoview/internal/pool"
)

// scoreUncached is the reference scorer: it evaluates every rule of
// every candidate from scratch with gainDir and returns those with gain
// above GainEpsilon, in candidate order and per candidate in the order
// →, ←, ↔.
func scoreUncached(s *State, cands []Candidate) []scoredRule {
	coder := s.coder
	var dst []scoredRule
	for ci := range cands {
		c := &cands[ci]
		if s.Qub(c.X, c.Y, c.TidX.Count(), c.TidY.Count()) <= GainEpsilon {
			continue
		}
		gainF := s.gainDir(dataset.Left, c.TidX, c.Y)
		gainB := s.gainDir(dataset.Right, c.TidY, c.X)
		lenUni := coder.RuleLen(c.X, c.Y, false)
		lenBi := coder.RuleLen(c.X, c.Y, true)
		for _, sr := range [3]scoredRule{
			{Rule{X: c.X, Dir: Forward, Y: c.Y}, gainF - lenUni},
			{Rule{X: c.X, Dir: Backward, Y: c.Y}, gainB - lenUni},
			{Rule{X: c.X, Dir: Both, Y: c.Y}, gainF + gainB - lenBi},
		} {
			if sr.Gain > GainEpsilon {
				dst = append(dst, sr)
			}
		}
	}
	return dst
}

// checkSelectAgainstOracle runs SELECT(k) round by round on MineSelect's
// own pieces (qubVerdicts, selectCache, topRules, the overlap-filtered
// add walk) and asserts that:
//   - the cache's slots are exactly the candidates scoreUncached scores;
//     every round, every fresh slot's cached gainF and gainB (those of
//     the slots the round counted included) equal a from-scratch
//     gainDir bit for bit, and every slot the round left stale has a
//     bound at least each direction's from-scratch gain and below the
//     round's k-th best gain (GainEpsilon while the top is short);
//   - every round's top k equal sort-then-truncate of scoreUncached's
//     list: same rules, same gain bits, same order;
//   - every added rule's scored gain equals its gain recomputed against
//     the current state at its turn in the walk (the Line-8 argument);
//   - the rules added equal MineSelect's table, so the walk here is the
//     one MineSelect runs.
func checkSelectAgainstOracle(t testing.TB, d *dataset.Dataset, cands []Candidate, k, workers, maxRules int) {
	t.Helper()
	ctx := context.Background()
	s := NewState(d, mdl.NewCoder(d))
	rt := pool.NewRuntime()
	defer rt.Close()
	cv := newLocalCover(s, cands, rt, workers)
	var c selectCache
	c.reset(d, s.coder, cands, qubVerdicts(s.coder, cv, d, cands, nil))
	usedL := bitset.New(d.Items(dataset.Left))
	usedR := bitset.New(d.Items(dataset.Right))
	var top topRules
	rounds, skipped := 0, 0
	for maxRules == 0 || len(s.table.Rules) < maxRules {
		if err := c.score(ctx, cv, s.coder, cands, &top, k); err != nil {
			t.Fatal(err)
		}
		rounds++
		tau := GainEpsilon
		if len(top.rules) == k {
			tau = top.rules[k-1].Gain
		}
		slot := 0
		for ci := range cands {
			cd := &cands[ci]
			if s.Qub(cd.X, cd.Y, cd.TidX.Count(), cd.TidY.Count()) <= GainEpsilon {
				continue
			}
			if slot == len(c.slots) || int(c.slots[slot].cand) != ci {
				t.Fatalf("round %d: candidate %d passes qub but has no slot", rounds, ci)
			}
			sl := &c.slots[slot]
			slot++
			wantF := s.gainDir(dataset.Left, cd.TidX, cd.Y)
			wantB := s.gainDir(dataset.Right, cd.TidY, cd.X)
			if sl.stale {
				skipped++
				for dir, g := range [3]float64{wantF - sl.lenUni, wantB - sl.lenUni, wantF + wantB - sl.lenBi} {
					if !(sl.bound >= g) {
						t.Fatalf("round %d, candidate %d: bound %v below the %v gain %v", rounds, ci, sl.bound, Directions[dir], g)
					}
				}
				if !(sl.bound < tau) {
					t.Fatalf("round %d, candidate %d: skipped with bound %v, k-th best %v", rounds, ci, sl.bound, tau)
				}
				continue
			}
			if math.Float64bits(sl.gainF) != math.Float64bits(wantF) || math.Float64bits(sl.gainB) != math.Float64bits(wantB) {
				t.Fatalf("round %d, candidate %d: cached gains %v/%v, from scratch %v/%v",
					rounds, ci, sl.gainF, sl.gainB, wantF, wantB)
			}
		}
		if slot != len(c.slots) {
			t.Fatalf("round %d: %d slots, %d candidates pass qub", rounds, len(c.slots), slot)
		}
		want := scoreUncached(s, cands)
		sort.Slice(want, func(a, b int) bool { return want[a].before(want[b]) })
		want = want[:min(k, len(want))]
		if len(top.rules) != len(want) {
			t.Fatalf("round %d: top %d rules, want %d", rounds, len(top.rules), len(want))
		}
		for i := range want {
			if got := top.rules[i]; got.Rule.Compare(want[i].Rule) != 0 ||
				math.Float64bits(got.Gain) != math.Float64bits(want[i].Gain) {
				t.Fatalf("round %d, rule %d: cached %v gain %v, uncached %v gain %v",
					rounds, i, got.Rule, got.Gain, want[i].Rule, want[i].Gain)
			}
		}
		if len(top.rules) == 0 {
			break
		}
		usedL.Clear()
		usedR.Clear()
		for _, sr := range top.rules {
			if maxRules > 0 && len(s.table.Rules) >= maxRules {
				break
			}
			if anyIn(sr.Rule.X, usedL) || anyIn(sr.Rule.Y, usedR) {
				continue
			}
			if g := s.Gain(sr.Rule); math.Float64bits(g) != math.Float64bits(sr.Gain) {
				t.Fatalf("round %d: %v scored gain %v, gain at its turn %v", rounds, sr.Rule, sr.Gain, g)
			}
			s.AddRule(sr.Rule)
			c.touch(sr.Rule, s.totals)
			for _, it := range sr.Rule.X {
				usedL.Add(it)
			}
			for _, it := range sr.Rule.Y {
				usedR.Add(it)
			}
		}
	}
	if rounds < 2 {
		t.Fatalf("only %d rounds: the cache was never reused", rounds)
	}
	if skipped == 0 {
		t.Fatalf("%d rounds and no slot left stale: the bound never skipped a count", rounds)
	}

	res, err := MineSelect(ctx, d, cands, SelectOptions{K: k, MaxRules: maxRules, ParallelOptions: Parallel(workers)})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Table.Rules) != len(s.table.Rules) {
		t.Fatalf("MineSelect added %d rules, the oracle walk %d", len(res.Table.Rules), len(s.table.Rules))
	}
	for i, r := range s.table.Rules {
		if res.Table.Rules[i].Compare(r) != 0 {
			t.Fatalf("rule %d: MineSelect %v, oracle walk %v", i, res.Table.Rules[i], r)
		}
	}
	if math.Float64bits(res.State.Score()) != math.Float64bits(s.Score()) {
		t.Fatalf("score: MineSelect %v, oracle walk %v", res.State.Score(), s.Score())
	}
}

// topRules must keep exactly sort-then-truncate under SELECT's order,
// including among rules with equal gains.
func TestTopKMatchesSortThenTruncate(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 300; trial++ {
		n := r.Intn(200)
		scored := make([]scoredRule, n)
		for i := range scored {
			// Distinct rules; gains drawn from a handful of values so that
			// ties, broken by Rule.Compare, are frequent.
			gain := float64(r.Intn(6))
			if trial%3 == 0 {
				gain = r.Float64()
			}
			scored[i] = scoredRule{
				Rule: Rule{X: itemset.Itemset{i / 3}, Dir: Directions[i%3], Y: itemset.Itemset{r.Intn(4)}},
				Gain: gain,
			}
		}
		r.Shuffle(n, func(i, j int) { scored[i], scored[j] = scored[j], scored[i] })
		want := slices.Clone(scored)
		sort.Slice(want, func(a, b int) bool { return want[a].before(want[b]) })
		for _, k := range []int{1, 25, n + 1} {
			var top topRules
			top.reset(k)
			for _, sr := range scored {
				top.offer(sr)
			}
			got := top.rules
			w := want[:min(k, n)]
			if len(got) != len(w) {
				t.Fatalf("trial %d k=%d: %d rules, want %d", trial, k, len(got), len(w))
			}
			for i := range w {
				if got[i].Rule.Compare(w[i].Rule) != 0 || got[i].Gain != w[i].Gain {
					t.Fatalf("trial %d k=%d: position %d is %v (%v), want %v (%v)",
						trial, k, i, got[i].Rule, got[i].Gain, w[i].Rule, w[i].Gain)
				}
			}
		}
	}
}

// TestLazyBoundDominatesGains is the property test of the bound lazy
// SELECT skips slots by. On random planted datasets it counts every
// slot once, then adds random rules (every direction, Both included),
// with an occasional scoring round that recounts some slots; after
// each rule it refolds every slot from whatever count it holds, however
// old, and checks each direction's bound against that direction's gain
// from scratch, and the slot's bound against all three.
func TestLazyBoundDominatesGains(t *testing.T) {
	ctx := context.Background()
	r := rand.New(rand.NewSource(26))
	rt := pool.NewRuntime()
	defer rt.Close()
	zeroDelta, zeroBound, bothBinds := 0, 0, 0
	for trial := 0; trial < 30; trial++ {
		d := randomPlantedDataset(r, 5+r.Intn(8), 5+r.Intn(8), 30+r.Intn(90))
		cands := mustCandidates(t, d, 1+r.Intn(3), 0, Parallel(1))
		if len(cands) == 0 {
			continue
		}
		s := NewState(d, mdl.NewCoder(d))
		cv := newLocalCover(s, cands, rt, 1)
		var c selectCache
		c.reset(d, s.coder, cands, qubVerdicts(s.coder, cv, d, cands, nil))
		var top topRules
		if err := c.score(ctx, cv, s.coder, cands, &top, 1); err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 10; step++ {
			cd := &cands[r.Intn(len(cands))]
			rule := Rule{X: cd.X, Dir: Directions[r.Intn(3)], Y: cd.Y}
			s.AddRule(rule)
			c.touch(rule, s.totals)
			if r.Intn(4) == 0 {
				if err := c.score(ctx, cv, s.coder, cands, &top, 1+r.Intn(30)); err != nil {
					t.Fatal(err)
				}
			}
			for i := range c.slots {
				sl := &c.slots[i]
				cd := &cands[sl.cand]
				c.refold(s.coder, sl)
				y, x, end := sl.off, sl.off+sl.ny, sl.off+sl.n
				boundF := foldBound(s.coder, dataset.Right, c.item[y:x], c.delta[y:x], c.seen[y:x], c.errs[dataset.Right])
				boundB := foldBound(s.coder, dataset.Left, c.item[x:end], c.delta[x:end], c.seen[x:end], c.errs[dataset.Left])
				gainF := s.gainDir(dataset.Left, cd.TidX, cd.Y)
				gainB := s.gainDir(dataset.Right, cd.TidY, cd.X)
				bounds := [3]float64{boundF - sl.lenUni, boundB - sl.lenUni, boundF + boundB - sl.lenBi}
				gains := [3]float64{gainF - sl.lenUni, gainB - sl.lenUni, gainF + gainB - sl.lenBi}
				for dir := range gains {
					if !(bounds[dir] >= gains[dir]) || !(sl.bound >= gains[dir]) {
						t.Fatalf("trial %d step %d, %v: %v bound %v (slot %v), gain from scratch %v",
							trial, step, Rule{X: cd.X, Y: cd.Y}, Directions[dir], bounds[dir], sl.bound, gains[dir])
					}
				}
				if gains[2] > max(gains[0], gains[1]) {
					bothBinds++
				}
				for at := y; at < end; at++ {
					v := dataset.Left
					if at < x {
						v = dataset.Right
					}
					if c.delta[at] == 0 {
						zeroDelta++
					}
					if c.delta[at]+c.errs[v][c.item[at]]-c.seen[at] == 0 {
						zeroBound++
					}
				}
			}
		}
	}
	if zeroDelta == 0 || zeroBound == 0 || bothBinds == 0 {
		t.Fatalf("vacuous: %d zero deltas, %d zero bounded deltas, %d slots whose Both gain is their best", zeroDelta, zeroBound, bothBinds)
	}
	t.Logf("%d zero deltas, %d zero bounded deltas, %d slots whose Both gain is their best", zeroDelta, zeroBound, bothBinds)
}
