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
// above gainEpsilon, in candidate order and per candidate in the order
// →, ←, ↔.
func scoreUncached(s *State, cands []Candidate) []scoredRule {
	coder := s.coder
	var dst []scoredRule
	for ci := range cands {
		c := &cands[ci]
		if s.Qub(c.X, c.Y, c.TidX.Count(), c.TidY.Count()) <= gainEpsilon {
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
			if sr.Gain > gainEpsilon {
				dst = append(dst, sr)
			}
		}
	}
	return dst
}

// checkSelectAgainstOracle runs SELECT(k) round by round on MineSelect's
// own pieces (selectCache, topK, the overlap-filtered add walk) and
// asserts that:
//   - every round's cached scored list equals scoreUncached's exactly: same
//     rules, same gain bits, same order;
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
	c.reset(d, s.coder, cands)
	usedL := bitset.New(d.Items(dataset.Left))
	usedR := bitset.New(d.Items(dataset.Right))
	var got []scoredRule
	rounds := 0
	for maxRules == 0 || len(s.table.Rules) < maxRules {
		var err error
		if got, err = c.score(ctx, cv, s.coder, cands, got[:0]); err != nil {
			t.Fatal(err)
		}
		rounds++
		want := scoreUncached(s, cands)
		if len(got) != len(want) {
			t.Fatalf("round %d: %d scored rules, want %d", rounds, len(got), len(want))
		}
		for i := range want {
			if got[i].Rule.Compare(want[i].Rule) != 0 ||
				math.Float64bits(got[i].Gain) != math.Float64bits(want[i].Gain) {
				t.Fatalf("round %d, rule %d: cached %v gain %v, uncached %v gain %v",
					rounds, i, got[i].Rule, got[i].Gain, want[i].Rule, want[i].Gain)
			}
		}
		top := topK(got, k)
		if len(top) == 0 {
			break
		}
		usedL.Clear()
		usedR.Clear()
		for _, sr := range top {
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
			c.dirty.Touch(sr.Rule)
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

// topK must return exactly sort-then-truncate under SELECT's order,
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
			got := topK(slices.Clone(scored), k)
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
