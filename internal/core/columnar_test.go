package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"twoview/internal/bitset"
	"twoview/internal/dataset"
	"twoview/internal/itemset"
	"twoview/internal/mdl"
)

// This file pins the columnar cover state (ucol/ecol + fused popcount
// kernels) to a reference taken straight from Algorithm 1, in the
// spirit of eclat/reference_test.go: refCover derives each
// transaction's U and E from TranslateRow, and refGainDir walks the
// support transaction-by-transaction probing those rows bit-by-bit —
// the pre-columnar evaluation strategy — and accumulates per-item
// integer counts. Counting in integers makes the per-item tallies
// exact, and the reference combines them with the identical
// floating-point expression as the columnar kernel, so the property
// tests can demand agreement to the last bit (==, no tolerance) on
// random datasets and random partially-applied tables.

// refCover is the reference cover state of a State's current table:
// per target view and transaction, U_t = t \ t′ and E_t = t′ \ t, with
// t′ the translation TranslateRow gives.
type refCover struct {
	u, e [2][]*bitset.Set
}

func newRefCover(s *State) *refCover {
	d := s.Dataset()
	ref := &refCover{}
	for _, target := range []dataset.View{dataset.Left, dataset.Right} {
		from := target.Opposite()
		for t := 0; t < d.Size(); t++ {
			row := d.Row(target, t)
			tp := TranslateRow(d, s.Table(), from, d.Row(from, t))
			u := row.Clone()
			u.AndNot(tp)
			e := tp.Clone()
			e.AndNot(row)
			ref.u[target] = append(ref.u[target], u)
			ref.e[target] = append(ref.e[target], e)
		}
	}
	return ref
}

// refGainDir is the row-wise reference for State.gainDir.
func refGainDir(s *State, ref *refCover, from dataset.View, tids *bitset.Set, cons itemset.Itemset) float64 {
	target := from.Opposite()
	d := s.Dataset()
	gain := 0.0
	for _, y := range cons {
		covered, errs := 0, 0
		tids.ForEach(func(t int) bool {
			switch {
			case ref.u[target][t].Contains(y):
				covered++
			case !d.Row(target, t).Contains(y) && !ref.e[target][t].Contains(y):
				errs++
			}
			return true
		})
		if covered == errs {
			continue
		}
		gain += s.Coder().ItemLen(target, y) * float64(covered-errs)
	}
	return gain
}

// refGainWithTids is the row-wise reference for State.GainWithTids.
func refGainWithTids(s *State, ref *refCover, r Rule, tidX, tidY *bitset.Set) float64 {
	gain := 0.0
	if r.AppliesTo(dataset.Left) {
		gain += refGainDir(s, ref, dataset.Left, tidX, r.Y)
	}
	if r.AppliesTo(dataset.Right) {
		gain += refGainDir(s, ref, dataset.Right, tidY, r.X)
	}
	return gain - r.Len(s.Coder())
}

// refSumTub is the closure-based reference walk for exactTub.sum.
func refSumTub(et *exactTub, target dataset.View, tids *bitset.Set) float64 {
	total := 0.0
	tids.ForEach(func(t int) bool {
		total += et.tub[target][t]
		return true
	})
	return total
}

// refRub is exactTub.rub on top of refSumTub.
func refRub(et *exactTub, x, y itemset.Itemset, tidX, tidY *bitset.Set) float64 {
	return refSumTub(et, dataset.Right, tidX) + refSumTub(et, dataset.Left, tidY) -
		et.s.Coder().RuleLen(x, y, true)
}

// columnMismatch compares ucol/ecol against a transpose of the
// reference rows: ucol[v][i] must be exactly {t : i ∈ U_t} and
// ecol[v][i] exactly {t : i ∈ E_t}. It describes the first mismatch, or
// returns "" when the columns match.
func columnMismatch(s *State, ref *refCover) string {
	d := s.Dataset()
	for _, v := range []dataset.View{dataset.Left, dataset.Right} {
		for i := 0; i < d.Items(v); i++ {
			wantU := bitset.New(d.Size())
			wantE := bitset.New(d.Size())
			for tr := 0; tr < d.Size(); tr++ {
				if ref.u[v][tr].Contains(i) {
					wantU.Add(tr)
				}
				if ref.e[v][tr].Contains(i) {
					wantE.Add(tr)
				}
			}
			if !s.ucol[v][i].Equal(wantU) {
				return fmt.Sprintf("ucol[%v][%d] = %v, reference %v", v, i, &s.ucol[v][i], wantU)
			}
			if !s.ecol[v][i].Equal(wantE) {
				return fmt.Sprintf("ecol[%v][%d] = %v, reference %v", v, i, &s.ecol[v][i], wantE)
			}
		}
	}
	return ""
}

// columnsMatchReference fails the test unless s's columns match the
// reference cover of its table.
func columnsMatchReference(t *testing.T, s *State, ctx string) {
	t.Helper()
	if msg := columnMismatch(s, newRefCover(s)); msg != "" {
		t.Fatalf("%s: %s", ctx, msg)
	}
}

// randomProbeRule builds a rule from random (possibly overlapping,
// possibly low-support) itemsets, to probe states off the mined path.
func randomProbeRule(r *rand.Rand, d *dataset.Dataset) Rule {
	x := itemset.New(r.Intn(d.Items(dataset.Left)))
	if r.Intn(2) == 0 {
		x = x.Union(itemset.New(r.Intn(d.Items(dataset.Left))))
	}
	y := itemset.New(r.Intn(d.Items(dataset.Right)))
	if r.Intn(2) == 0 {
		y = y.Union(itemset.New(r.Intn(d.Items(dataset.Right))))
	}
	return Rule{X: x, Dir: Direction(r.Intn(3)), Y: y}
}

// The central row-vs-column property: on random datasets and random
// partially-applied tables, Gain/GainWithTids computed through the
// columnar mirror, and EXACT's rub and tub sums, equal the row-wise
// reference bit for bit — before any rule, between any two rules, and
// after all of them.
func TestQuickColumnarMatchesRowReference(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d, tab := randomDataAndTable(r)
		s := NewState(d, mdl.NewCoder(d))
		et := newExactTub(s)
		step := -1
		check := func() bool {
			step++
			ref := newRefCover(s)
			// Probe rules: a few random ones plus every table rule.
			probes := append([]Rule(nil), tab.Rules...)
			for k := 0; k < 4; k++ {
				probes = append(probes, randomProbeRule(r, d))
			}
			for _, probe := range probes {
				tidX := d.SupportSet(dataset.Left, probe.X)
				tidY := d.SupportSet(dataset.Right, probe.Y)
				if s.GainWithTids(probe, tidX, tidY) != refGainWithTids(s, ref, probe, tidX, tidY) {
					t.Logf("seed %d step %d: GainWithTids differs for %v", seed, step, probe)
					return false
				}
				if s.Gain(probe) != refGainWithTids(s, ref, probe, tidX, tidY) {
					t.Logf("seed %d step %d: Gain differs for %v", seed, step, probe)
					return false
				}
				if et.rub(probe.X, probe.Y, tidX, tidY) != refRub(et, probe.X, probe.Y, tidX, tidY) {
					t.Logf("seed %d step %d: Rub differs for %v", seed, step, probe)
					return false
				}
				for _, v := range []dataset.View{dataset.Left, dataset.Right} {
					if et.sum(v, tidX) != refSumTub(et, v, tidX) {
						t.Logf("seed %d step %d: SumTub differs", seed, step)
						return false
					}
				}
			}
			return true
		}
		if !check() {
			return false
		}
		for _, rule := range tab.Rules {
			et.addRule(rule)
			if !check() {
				return false
			}
		}
		columnsMatchReference(t, s, "after replay")
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// All three miners must produce bit-identical gains, rules and final
// tables for workers ∈ {1, 2, 4, 7} on random datasets, and their final
// states' columns must match the reference cover. Run under
// -race this also exercises the concurrent columnar reads.
func TestMinersColumnarBitIdenticalAcrossWorkers(t *testing.T) {
	workerSets := []int{1, 2, 4, 7}
	for _, seed := range []int64{3, 17, 41} {
		d := plantedDataset(t, seed)
		cands, err := MineCandidates(context.Background(), d, 1, 0, Parallel(1))
		if err != nil {
			t.Fatal(err)
		}
		type miner struct {
			name string
			run  func(workers int) *Result
		}
		miners := []miner{
			{"exact", func(w int) *Result {
				return mustExact(t, d, ExactOptions{ParallelOptions: Parallel(w)})
			}},
			{"select", func(w int) *Result {
				return mustSelect(t, d, cands, SelectOptions{K: 25, ParallelOptions: Parallel(w)})
			}},
			{"greedy", func(w int) *Result {
				return mustGreedy(t, d, cands, GreedyOptions{ParallelOptions: Parallel(w)})
			}},
		}
		for _, m := range miners {
			base := m.run(1)
			if base.Table.Size() == 0 {
				t.Fatalf("%s seed %d: mined nothing", m.name, seed)
			}
			columnsMatchReference(t, base.State, m.name+" serial")
			// The final state must replay to the same gains the miner saw.
			replay := NewState(d, mdl.NewCoder(d))
			for i, rule := range base.Table.Rules {
				tidX := d.SupportSet(dataset.Left, rule.X)
				tidY := d.SupportSet(dataset.Right, rule.Y)
				if g := refGainWithTids(replay, newRefCover(replay), rule, tidX, tidY); g != base.Iterations[i].Gain {
					t.Fatalf("%s seed %d: rule %d recorded gain %v, row-wise replay %v",
						m.name, seed, i, base.Iterations[i].Gain, g)
				}
				replay.AddRule(rule)
			}
			for _, w := range workerSets[1:] {
				got := m.run(w)
				if got.Table.Size() != base.Table.Size() {
					t.Fatalf("%s seed %d workers %d: %d rules, serial %d",
						m.name, seed, w, got.Table.Size(), base.Table.Size())
				}
				for i := range base.Table.Rules {
					if got.Table.Rules[i].Compare(base.Table.Rules[i]) != 0 {
						t.Fatalf("%s seed %d workers %d: rule %d differs", m.name, seed, w, i)
					}
					if got.Iterations[i].Gain != base.Iterations[i].Gain {
						t.Fatalf("%s seed %d workers %d: gain %d differs", m.name, seed, w, i)
					}
				}
				if got.State.Score() != base.State.Score() {
					t.Fatalf("%s seed %d workers %d: score differs", m.name, seed, w)
				}
				columnsMatchReference(t, got.State, m.name+" parallel")
			}
		}
	}
}
