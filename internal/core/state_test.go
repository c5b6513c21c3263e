package core

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"twoview/internal/bitset"
	"twoview/internal/dataset"
	"twoview/internal/itemset"
	"twoview/internal/mdl"
)

// tableState is a State with the table of the rules added through it,
// so that a test can read the score L(D,T) the miners report for it.
type tableState struct {
	*State
	table Table
}

func newTableState(d *dataset.Dataset) *tableState {
	return &tableState{State: NewState(d, mdl.NewCoder(d))}
}

// AddRule applies r to the state and appends it to the table.
func (ts *tableState) AddRule(r Rule) {
	ts.State.AddRule(r)
	ts.table.Rules = append(ts.table.Rules, r)
}

// Score returns L(D_L↔R, T) of the table.
func (ts *tableState) Score() float64 { return ts.totals.Score(&ts.table) }

// sameTotals reports whether a and b are equal bit for bit.
func sameTotals(a, b *CoverTotals) bool {
	for v := range a.CorrLen {
		if a.UOnes[v] != b.UOnes[v] || a.EOnes[v] != b.EOnes[v] ||
			math.Float64bits(a.CorrLen[v]) != math.Float64bits(b.CorrLen[v]) ||
			!slices.Equal(a.itemErrs[v], b.itemErrs[v]) {
			return false
		}
	}
	return true
}

func TestNewStateIsBaseline(t *testing.T) {
	d := fig1(t)
	s := newTableState(d)
	if base := s.totals.coder.BaselineLen(d); math.Abs(s.Score()-base) > 1e-9 {
		t.Fatalf("empty-table score %v != baseline %v", s.Score(), base)
	}
	if s.totals.EOnes[dataset.Left] != 0 || s.totals.EOnes[dataset.Right] != 0 {
		t.Fatal("no errors before any rule")
	}
	wantU := d.Ones(dataset.Left)
	if s.totals.UOnes[dataset.Left] != wantU {
		t.Fatalf("|U_L| = %d, want %d", s.totals.UOnes[dataset.Left], wantU)
	}
	if s.totals.UOnes[dataset.Right] != d.Ones(dataset.Right) {
		t.Fatal("|U_R| must equal all right ones initially")
	}
	// EXACT's tub(t) = L(row) initially.
	et := newExactTub(s.State)
	for i := 0; i < d.Size(); i++ {
		want := rowLen(s.totals.coder, dataset.Right, d.Row(dataset.Right, i))
		if math.Abs(et.tub[dataset.Right][i]-want) > 1e-9 {
			t.Fatalf("tub(R,%d) = %v, want %v", i, et.tub[dataset.Right][i], want)
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
	s := newTableState(d)
	for _, r := range rules {
		gain := s.GainWithTids(r, nil, nil)
		before := s.Score()
		s.AddRule(r)
		after := s.Score()
		if math.Abs((before-after)-gain) > 1e-9 {
			t.Fatalf("rule %v: gain=%v but score delta=%v", r, gain, before-after)
		}
	}
}

// stateMatchesReference checks every incremental structure of s, which
// has applied tab, against the reference cover of tab (refCover, from
// TranslateRow): the columns, |U|, |E|, each item's |E_y|, L(C|T),
// EXACT's tub as et maintained it over the table's rules, and, bit for
// bit, the tub a fresh exactTub builds.
func stateMatchesReference(s *State, tab *Table, et *exactTub) bool {
	d, coder := s.d, s.totals.coder
	ref := newRefCover(d, tab)
	if columnMismatch(s, ref) != "" {
		return false
	}
	fresh := newExactTub(s)
	for _, target := range []dataset.View{dataset.Left, dataset.Right} {
		u, e := ref.u[target], ref.e[target]
		uOnes, eOnes, corrLen := 0, 0, 0.0
		for i := 0; i < d.Size(); i++ {
			uOnes += u[i].Count()
			eOnes += e[i].Count()
			corrLen += rowLen(coder, target, u[i]) + rowLen(coder, target, e[i])
			if math.Abs(et.tub[target][i]-rowLen(coder, target, u[i])) > 1e-9 {
				return false
			}
			if fresh.tub[target][i] != rowLen(coder, target, u[i]) {
				return false
			}
		}
		if s.totals.UOnes[target] != uOnes || s.totals.EOnes[target] != eOnes {
			return false
		}
		for y := range s.ecol[target] {
			if int(s.totals.itemErrs[target][y]) != s.ecol[target][y].Count() {
				return false
			}
		}
		if math.Abs(s.totals.CorrLen[target]-corrLen) > 1e-9 {
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
		et := newExactTub(s)
		prevErrL, prevErrR := 0, 0
		for _, rule := range tab.Rules {
			et.addRule(rule)
			// Errors are monotone (§5.1).
			if s.totals.EOnes[dataset.Left] < prevErrL || s.totals.EOnes[dataset.Right] < prevErrR {
				return false
			}
			prevErrL, prevErrR = s.totals.EOnes[dataset.Left], s.totals.EOnes[dataset.Right]
		}
		return stateMatchesReference(s, tab, et)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickGainEqualsDelta(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d, tab := randomDataAndTable(r)
		s := newTableState(d)
		for _, rule := range tab.Rules {
			gain := s.GainWithTids(rule, nil, nil)
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
		if math.Abs(a.Score(tab)-b.Score(perm)) > 1e-9 ||
			a.UOnes != b.UOnes || a.EOnes != b.EOnes {
			t.Fatalf("EvaluateTable depends on rule order (trial %d)", trial)
		}
	}
}

func TestGainWithTidsMatchesGain(t *testing.T) {
	d := fig1(t)
	s := NewState(d, mdl.NewCoder(d))
	r := Rule{X: itemset.New(0, 1), Dir: Both, Y: itemset.New(1, 5)}
	tidX := d.SupportSet(dataset.Left, r.X)
	tidY := d.SupportSet(dataset.Right, r.Y)
	if g1, g2 := s.GainWithTids(r, nil, nil), s.GainWithTids(r, tidX, tidY); math.Abs(g1-g2) > 1e-12 {
		t.Fatalf("GainWithTids %v with tidsets, %v without", g2, g1)
	}
}

func TestBoundsAreUpperBounds(t *testing.T) {
	// rub and qub must never be below the true gain of the rule itself.
	r := rand.New(rand.NewSource(21))
	for trial := 0; trial < 60; trial++ {
		d, tab := randomDataAndTable(r)
		s := NewState(d, mdl.NewCoder(d))
		et := newExactTub(s)
		// Evolve the state a bit first so U/E are non-trivial.
		for _, rule := range tab.Rules {
			et.addRule(rule)
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
			rub := et.rub(rule.X, rule.Y, tidX, tidY)
			q := qub(s.totals.coder, rule.X, rule.Y, tidX.Count(), tidY.Count())
			if gain > rub+1e-9 {
				t.Fatalf("rub %v < gain %v for %v", rub, gain, rule)
			}
			if gain > q+1e-9 {
				t.Fatalf("qub %v < gain %v for %v", q, gain, rule)
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
		et := newExactTub(NewState(d, mdl.NewCoder(d)))
		for _, rule := range tab.Rules {
			et.addRule(rule)
		}
		x, y := itemset.New(r.Intn(d.Items(dataset.Left))), itemset.New(r.Intn(d.Items(dataset.Right)))
		tidX := d.SupportSet(dataset.Left, x)
		tidY := d.SupportSet(dataset.Right, y)
		base := et.rub(x, y, tidX, tidY)
		// Extend X by one more item.
		for extra := 0; extra < d.Items(dataset.Left); extra++ {
			if x.Contains(extra) {
				continue
			}
			x2 := x.Union(itemset.New(extra))
			tidX2 := d.SupportSet(dataset.Left, x2)
			if got := et.rub(x2, y, tidX2, tidY); got > base+1e-9 {
				t.Fatalf("rub grew under extension: %v > %v", got, base)
			}
		}
	}
}

func TestCompressionAndCorrectionRatio(t *testing.T) {
	d := fig1(t)
	lPct, corrPct := NewCoverTotals(d, mdl.NewCoder(d)).Ratios(d, &Table{})
	if math.Abs(lPct-100) > 1e-9 {
		t.Fatalf("empty table L%% = %v, want 100", lPct)
	}
	ones := d.Ones(dataset.Left) + d.Ones(dataset.Right)
	cells := (d.Items(dataset.Left) + d.Items(dataset.Right)) * d.Size()
	want := 100 * float64(ones) / float64(cells)
	if math.Abs(corrPct-want) > 1e-9 {
		t.Fatalf("|C|%% = %v, want %v", corrPct, want)
	}
	empty := dataset.MustNew([]string{"a"}, []string{"b"})
	if lPct, corrPct := NewCoverTotals(empty, mdl.NewCoder(empty)).Ratios(empty, &Table{}); lPct != 100 || corrPct != 0 {
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

// rowLen returns Σ_{i∈b} L(i|D_v), added in ascending item order: the
// row-major encoded length that column-built sums are checked against.
func rowLen(c *mdl.Coder, v dataset.View, b *bitset.Set) float64 {
	return c.SetLen(v, b.Indices())
}

// randomSparseDataset returns a random dataset whose items occur with
// per-item probabilities drawn from {0, 0.05, 0.3, 0.9}, so some items
// never occur and some rows are empty, with up to 400 rows: enough for
// row-major and item-major float sums to part in their last bits.
func randomSparseDataset(r *rand.Rand) *dataset.Dataset {
	nL, nR := 1+r.Intn(12), 1+r.Intn(12)
	d := dataset.MustNew(dataset.GenericNames("l", nL), dataset.GenericNames("r", nR))
	probs := []float64{0, 0.05, 0.3, 0.9}
	pL, pR := make([]float64, nL), make([]float64, nR)
	for i := range pL {
		pL[i] = probs[r.Intn(len(probs))]
	}
	for i := range pR {
		pR[i] = probs[r.Intn(len(probs))]
	}
	draw := func(p []float64) []int {
		var row []int
		for i, pi := range p {
			if r.Float64() < pi {
				row = append(row, i)
			}
		}
		return row
	}
	for n := r.Intn(400); n > 0; n-- {
		d.AddRow(draw(pL), draw(pR))
	}
	return d
}

// relClose reports whether a and b agree within tol relative to the
// larger magnitude.
func relClose(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b))
}

// The empty-table totals come from the item supports: UOnes equals the
// row-popcount sum exactly, and CorrLen the row-major sum of the rows'
// encoded lengths up to rounding, never NaN (items that never occur
// cost +Inf and must not enter as 0·Inf).
func TestQuickCoverTotalsFromSupports(t *testing.T) {
	f := func(seed int64) bool {
		d := randomSparseDataset(rand.New(rand.NewSource(seed)))
		coder := mdl.NewCoder(d)
		ct := NewCoverTotals(d, coder)
		for _, v := range []dataset.View{dataset.Left, dataset.Right} {
			ones, corrLen := 0, 0.0
			for i := 0; i < d.Size(); i++ {
				ones += d.Row(v, i).Count()
				corrLen += rowLen(coder, v, d.Row(v, i))
			}
			if ct.UOnes[v] != ones || ct.EOnes[v] != 0 {
				t.Logf("seed %d view %v: UOnes %d, EOnes %d, row sum %d", seed, v, ct.UOnes[v], ct.EOnes[v], ones)
				return false
			}
			if math.IsNaN(ct.CorrLen[v]) || !relClose(ct.CorrLen[v], corrLen, 1e-12) {
				t.Logf("seed %d view %v: CorrLen %v, row-major %v", seed, v, ct.CorrLen[v], corrLen)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// NewState keeps nothing per transaction beyond its U/E columns: from
// 1,000 to 33,000 transactions its allocation may grow only by the
// words of its column sets (one U and one E set per item) and of its
// scratch set, with room for allocator rounding. Per-transaction
// arrays, such as one float64 bound per transaction and view, would
// add 16 bytes a transaction and fail it.
func TestNewStateAllocationIsColumnar(t *testing.T) {
	const nL, nR = 6, 5
	r := rand.New(rand.NewSource(5))
	alloc := func(n int) uint64 {
		d := dataset.MustNew(dataset.GenericNames("l", nL), dataset.GenericNames("r", nR))
		for i := 0; i < n; i++ {
			var left, right []int
			for j := 0; j < nL; j++ {
				if r.Intn(3) == 0 {
					left = append(left, j)
				}
			}
			for j := 0; j < nR; j++ {
				if r.Intn(3) == 0 {
					right = append(right, j)
				}
			}
			d.AddRow(left, right)
		}
		coder := mdl.NewCoder(d) // builds the dataset's column cache
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		NewState(d, coder)
		runtime.ReadMemStats(&m1)
		return m1.TotalAlloc - m0.TotalAlloc
	}
	const small, large = 1_000, 33_000
	words := func(n int) uint64 { return uint64(n+63) / 64 }
	sets := uint64(2*(nL+nR) + 1)
	allowed := sets*(words(large)-words(small))*8*5/4 + 16<<10
	if got := alloc(large) - alloc(small); got > allowed {
		t.Fatalf("NewState allocation grew by %d bytes from %d to %d transactions; its columns allow %d",
			got, small, large, allowed)
	}
}

// sum returns Σ_{t ∈ tids} tub[v][t] over et's bounds, accumulated in
// ascending order as EXACT's search accumulates it.
func (et *exactTub) sum(v dataset.View, tids *bitset.Set) float64 {
	return bitset.WeightedSum(tids, et.tub[v])
}

// rub returns the rule-based upper bound rub(X ◇ Y) of §5.2 over et's
// bounds: it bounds the gain of the rule and of every extension of it.
// EXACT's search accumulates the same sums incrementally.
func (et *exactTub) rub(x, y itemset.Itemset, tidX, tidY *bitset.Set) float64 {
	return et.sum(dataset.Right, tidX) + et.sum(dataset.Left, tidY) -
		et.s.totals.coder.RuleLen(x, y, true)
}
