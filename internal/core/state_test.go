package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"twoview/internal/dataset"
	"twoview/internal/itemset"
	"twoview/internal/mdl"
)

func newStateFor(t *testing.T, d *dataset.Dataset) *State {
	t.Helper()
	return NewState(d, mdl.NewCoder(d))
}

func TestNewStateIsBaseline(t *testing.T) {
	d := fig1(t)
	s := newStateFor(t, d)
	if math.Abs(s.Score()-s.Baseline()) > 1e-9 {
		t.Fatalf("empty-table score %v != baseline %v", s.Score(), s.Baseline())
	}
	if s.TableLen() != 0 || s.Table().Size() != 0 {
		t.Fatal("empty table must have zero length")
	}
	if s.ErrorOnes(dataset.Left) != 0 || s.ErrorOnes(dataset.Right) != 0 {
		t.Fatal("no errors before any rule")
	}
	wantU := d.Ones(dataset.Left)
	if s.UncoveredOnes(dataset.Left) != wantU {
		t.Fatalf("|U_L| = %d, want %d", s.UncoveredOnes(dataset.Left), wantU)
	}
	if s.CorrectionOnes() != d.Ones(dataset.Left)+d.Ones(dataset.Right) {
		t.Fatal("|C| must equal all ones initially")
	}
	// tub(t) = L(row) initially.
	for i := 0; i < d.Size(); i++ {
		want := s.Coder().BitsLen(dataset.Right, d.Row(dataset.Right, i))
		if math.Abs(s.Tub(dataset.Right, i)-want) > 1e-9 {
			t.Fatalf("tub(R,%d) = %v, want %v", i, s.Tub(dataset.Right, i), want)
		}
	}
}

func TestGainMatchesScoreDelta(t *testing.T) {
	d := fig1(t)
	rules := []Rule{
		{X: itemset.New(0, 1), Dir: Both, Y: itemset.New(1, 5)},
		{X: itemset.New(2), Dir: Forward, Y: itemset.New(4)},
		{X: itemset.New(3), Dir: Backward, Y: itemset.New(3)},
		{X: itemset.New(1), Dir: Forward, Y: itemset.New(2)},
	}
	s := newStateFor(t, d)
	for _, r := range rules {
		gain := s.Gain(r)
		before := s.Score()
		s.AddRule(r)
		after := s.Score()
		if math.Abs((before-after)-gain) > 1e-9 {
			t.Fatalf("rule %v: gain=%v but score delta=%v", r, gain, before-after)
		}
	}
}

// stateMatchesReference checks every incremental structure against the
// reference cover of the table (refCover, from TranslateRow): the
// columns, |U|, |E|, L(C|T) and tub.
func stateMatchesReference(s *State) bool {
	d := s.Dataset()
	ref := newRefCover(s)
	if columnMismatch(s, ref) != "" {
		return false
	}
	for _, target := range []dataset.View{dataset.Left, dataset.Right} {
		u, e := ref.u[target], ref.e[target]
		uOnes, eOnes, corrLen := 0, 0, 0.0
		for i := 0; i < d.Size(); i++ {
			uOnes += u[i].Count()
			eOnes += e[i].Count()
			corrLen += s.Coder().BitsLen(target, u[i]) + s.Coder().BitsLen(target, e[i])
			if math.Abs(s.Tub(target, i)-s.Coder().BitsLen(target, u[i])) > 1e-9 {
				return false
			}
		}
		if s.UncoveredOnes(target) != uOnes || s.ErrorOnes(target) != eOnes {
			return false
		}
		if math.Abs(s.CorrLen(target)-corrLen) > 1e-9 {
			return false
		}
	}
	return true
}

func TestQuickStateMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d, tab := randomDataAndTable(r)
		s := NewState(d, mdl.NewCoder(d))
		prevErrL, prevErrR := 0, 0
		for _, rule := range tab.Rules {
			s.AddRule(rule)
			// Errors are monotone (§5.1).
			if s.ErrorOnes(dataset.Left) < prevErrL || s.ErrorOnes(dataset.Right) < prevErrR {
				return false
			}
			prevErrL, prevErrR = s.ErrorOnes(dataset.Left), s.ErrorOnes(dataset.Right)
		}
		return stateMatchesReference(s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickGainEqualsDelta(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d, tab := randomDataAndTable(r)
		s := NewState(d, mdl.NewCoder(d))
		for _, rule := range tab.Rules {
			gain := s.Gain(rule)
			before := s.Score()
			s.AddRule(rule)
			if math.Abs((before-s.Score())-gain) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestEvaluateTableOrderIndependent(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		d, tab := randomDataAndTable(r)
		coder := mdl.NewCoder(d)
		a := EvaluateTable(d, coder, tab)
		perm := &Table{Rules: append([]Rule(nil), tab.Rules...)}
		r.Shuffle(len(perm.Rules), func(i, j int) {
			perm.Rules[i], perm.Rules[j] = perm.Rules[j], perm.Rules[i]
		})
		b := EvaluateTable(d, coder, perm)
		if math.Abs(a.Score()-b.Score()) > 1e-9 ||
			a.CorrectionOnes() != b.CorrectionOnes() {
			t.Fatalf("EvaluateTable depends on rule order (trial %d)", trial)
		}
	}
}

func TestGainWithTidsMatchesGain(t *testing.T) {
	d := fig1(t)
	s := newStateFor(t, d)
	r := Rule{X: itemset.New(0, 1), Dir: Both, Y: itemset.New(1, 5)}
	tidX := d.SupportSet(dataset.Left, r.X)
	tidY := d.SupportSet(dataset.Right, r.Y)
	if g1, g2 := s.Gain(r), s.GainWithTids(r, tidX, tidY); math.Abs(g1-g2) > 1e-12 {
		t.Fatalf("GainWithTids %v != Gain %v", g2, g1)
	}
}

func TestBoundsAreUpperBounds(t *testing.T) {
	// rub and qub must never be below the true gain of the rule itself.
	r := rand.New(rand.NewSource(21))
	for trial := 0; trial < 60; trial++ {
		d, tab := randomDataAndTable(r)
		s := NewState(d, mdl.NewCoder(d))
		// Evolve the state a bit first so U/E are non-trivial.
		for _, rule := range tab.Rules {
			s.AddRule(rule)
		}
		var probe Table
		for k := 0; k < 8; k++ {
			x := itemset.New(r.Intn(d.Items(dataset.Left)), r.Intn(d.Items(dataset.Left)))
			y := itemset.New(r.Intn(d.Items(dataset.Right)), r.Intn(d.Items(dataset.Right)))
			probe.Rules = append(probe.Rules, Rule{X: x, Dir: Direction(r.Intn(3)), Y: y})
		}
		for _, rule := range probe.Rules {
			tidX := d.SupportSet(dataset.Left, rule.X)
			tidY := d.SupportSet(dataset.Right, rule.Y)
			gain := s.GainWithTids(rule, tidX, tidY)
			rub := s.Rub(rule.X, rule.Y, tidX, tidY)
			qub := s.Qub(rule.X, rule.Y, tidX.Count(), tidY.Count())
			if gain > rub+1e-9 {
				t.Fatalf("rub %v < gain %v for %v", rub, gain, rule)
			}
			if gain > qub+1e-9 {
				t.Fatalf("qub %v < gain %v for %v", qub, gain, rule)
			}
		}
	}
}

func TestRubAntitoneUnderExtension(t *testing.T) {
	// Extending X or Y must never increase rub (the pruning soundness
	// condition of §5.2).
	r := rand.New(rand.NewSource(33))
	for trial := 0; trial < 60; trial++ {
		d, tab := randomDataAndTable(r)
		s := NewState(d, mdl.NewCoder(d))
		for _, rule := range tab.Rules {
			s.AddRule(rule)
		}
		x, y := itemset.New(r.Intn(d.Items(dataset.Left))), itemset.New(r.Intn(d.Items(dataset.Right)))
		tidX := d.SupportSet(dataset.Left, x)
		tidY := d.SupportSet(dataset.Right, y)
		base := s.Rub(x, y, tidX, tidY)
		// Extend X by one more item.
		for extra := 0; extra < d.Items(dataset.Left); extra++ {
			if x.Contains(extra) {
				continue
			}
			x2 := x.Union(itemset.New(extra))
			tidX2 := d.SupportSet(dataset.Left, x2)
			if got := s.Rub(x2, y, tidX2, tidY); got > base+1e-9 {
				t.Fatalf("rub grew under extension: %v > %v", got, base)
			}
		}
	}
}

func TestCompressionAndCorrectionRatio(t *testing.T) {
	d := fig1(t)
	s := newStateFor(t, d)
	if math.Abs(s.CompressionRatio()-100) > 1e-9 {
		t.Fatalf("empty table L%% = %v, want 100", s.CompressionRatio())
	}
	ones := d.Ones(dataset.Left) + d.Ones(dataset.Right)
	cells := (d.Items(dataset.Left) + d.Items(dataset.Right)) * d.Size()
	want := 100 * float64(ones) / float64(cells)
	if math.Abs(s.CorrectionRatio()-want) > 1e-9 {
		t.Fatalf("|C|%% = %v, want %v", s.CorrectionRatio(), want)
	}
	empty := dataset.MustNew([]string{"a"}, []string{"b"})
	se := NewState(empty, mdl.NewCoder(empty))
	if se.CompressionRatio() != 100 || se.CorrectionRatio() != 0 {
		t.Fatal("degenerate ratios wrong")
	}
}

func TestAddRulePanicsOnZeroSupportItem(t *testing.T) {
	// Left item 4 ("E") occurs, but right item ids beyond the data would
	// not; craft a dataset with a never-occurring right item.
	d := dataset.MustNew([]string{"a"}, []string{"p", "never"})
	d.AddRow([]int{0}, []int{0})
	s := NewState(d, mdl.NewCoder(d))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic when a rule drags in a zero-support item")
		}
	}()
	s.AddRule(Rule{X: itemset.New(0), Dir: Forward, Y: itemset.New(1)})
}
