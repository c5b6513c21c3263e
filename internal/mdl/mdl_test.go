package mdl

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"twoview/internal/dataset"
	"twoview/internal/itemset"
)

// four transactions; left item 0 occurs in 2 of 4 (1 bit), left item 1 in
// 1 of 4 (2 bits), right item 0 in all 4 (0 bits), right item 1 never.
func fixture(t *testing.T) *dataset.Dataset {
	t.Helper()
	d := dataset.MustNew([]string{"a", "b"}, []string{"p", "q"})
	rows := [][2][]int{
		{{0}, {0}},
		{{0, 1}, {0}},
		{{}, {0}},
		{{}, {0}},
	}
	for _, r := range rows {
		if err := d.AddRow(r[0], r[1]); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

func TestItemLen(t *testing.T) {
	c := NewCoder(fixture(t))
	if got := c.ItemLen(dataset.Left, 0); math.Abs(got-1) > 1e-12 {
		t.Fatalf("L(a) = %v, want 1", got)
	}
	if got := c.ItemLen(dataset.Left, 1); math.Abs(got-2) > 1e-12 {
		t.Fatalf("L(b) = %v, want 2", got)
	}
	if got := c.ItemLen(dataset.Right, 0); got != 0 {
		t.Fatalf("L(p) = %v, want 0", got)
	}
	if got := c.ItemLen(dataset.Right, 1); !math.IsInf(got, 1) {
		t.Fatalf("L(q) = %v, want +Inf", got)
	}
	if c.Size() != 4 {
		t.Fatalf("Size = %d", c.Size())
	}
}

func TestSetLen(t *testing.T) {
	c := NewCoder(fixture(t))
	x := itemset.New(0, 1)
	want := c.ItemLen(dataset.Left, 0) + c.ItemLen(dataset.Left, 1)
	if got := c.SetLen(dataset.Left, x); math.Abs(got-want) > 1e-12 {
		t.Fatalf("SetLen = %v, want %v", got, want)
	}
	if got := c.SetLen(dataset.Left, nil); got != 0 {
		t.Fatalf("SetLen(∅) = %v", got)
	}
}

func TestDirAndRuleLen(t *testing.T) {
	if DirLen(true) != 1 || DirLen(false) != 2 {
		t.Fatal("DirLen wrong")
	}
	c := NewCoder(fixture(t))
	x, y := itemset.New(0), itemset.New(0)
	// L(a)=1, L(p)=0.
	if got := c.RuleLen(x, y, true); math.Abs(got-2) > 1e-12 {
		t.Fatalf("RuleLen bidir = %v, want 2", got)
	}
	if got := c.RuleLen(x, y, false); math.Abs(got-3) > 1e-12 {
		t.Fatalf("RuleLen unidir = %v, want 3", got)
	}
}

func TestDataAndBaselineLen(t *testing.T) {
	d := fixture(t)
	c := NewCoder(d)
	// Left view: rows cost 1, 1+2, 0, 0 bits.
	if got := c.DataLen(d, dataset.Left); math.Abs(got-4) > 1e-12 {
		t.Fatalf("DataLen(L) = %v, want 4", got)
	}
	// Right view: item p costs 0 bits everywhere.
	if got := c.DataLen(d, dataset.Right); got != 0 {
		t.Fatalf("DataLen(R) = %v, want 0", got)
	}
	if got := c.BaselineLen(d); math.Abs(got-4) > 1e-12 {
		t.Fatalf("BaselineLen = %v, want 4", got)
	}
}

func TestEmptyDatasetInfLengths(t *testing.T) {
	d := dataset.MustNew([]string{"a"}, []string{"b"})
	c := NewCoder(d)
	if !math.IsInf(c.ItemLen(dataset.Left, 0), 1) {
		t.Fatal("items of an empty dataset must cost +Inf")
	}
	if c.BaselineLen(d) != 0 {
		t.Fatal("baseline of an empty dataset must be 0")
	}
}

// Properties: code lengths are non-negative and antitone in support; the
// baseline equals Σ_items supp(I)·L(I).
func TestQuickCoderProperties(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nL, nR := 1+r.Intn(8), 1+r.Intn(8)
		d := dataset.MustNew(dataset.GenericNames("l", nL), dataset.GenericNames("r", nR))
		n := 1 + r.Intn(40)
		for i := 0; i < n; i++ {
			var left, right []int
			for j := 0; j < nL; j++ {
				if r.Intn(4) == 0 {
					left = append(left, j)
				}
			}
			for j := 0; j < nR; j++ {
				if r.Intn(4) == 0 {
					right = append(right, j)
				}
			}
			if err := d.AddRow(left, right); err != nil {
				return false
			}
		}
		c := NewCoder(d)
		for _, v := range []dataset.View{dataset.Left, dataset.Right} {
			for i := 0; i < d.Items(v); i++ {
				l := c.ItemLen(v, i)
				if l < 0 {
					return false
				}
				if s := d.ItemSupport(v, i); (s == 0) != math.IsInf(l, 1) {
					return false
				}
			}
			// Antitone in support.
			for i := 0; i < d.Items(v); i++ {
				for j := 0; j < d.Items(v); j++ {
					si, sj := d.ItemSupport(v, i), d.ItemSupport(v, j)
					if si > 0 && sj > 0 && si < sj && c.ItemLen(v, i) < c.ItemLen(v, j) {
						return false
					}
				}
			}
			// Baseline decomposition.
			want := 0.0
			for i := 0; i < d.Items(v); i++ {
				if s := d.ItemSupport(v, i); s > 0 {
					want += float64(s) * c.ItemLen(v, i)
				}
			}
			if math.Abs(c.DataLen(d, v)-want) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// DataLen sums supp(i)·L(i) over the items; that must match the
// row-major sum of the rows' encoded lengths up to rounding on random
// datasets with empty rows and items that never occur, and never be NaN
// (a never-occurring item costs +Inf, and 0·Inf is NaN).
func TestQuickDataLenMatchesRowSum(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nL, nR := 1+r.Intn(12), 1+r.Intn(12)
		d := dataset.MustNew(dataset.GenericNames("l", nL), dataset.GenericNames("r", nR))
		probs := []float64{0, 0.05, 0.3, 0.9}
		p := [2][]float64{make([]float64, nL), make([]float64, nR)}
		for v := range p {
			for i := range p[v] {
				p[v][i] = probs[r.Intn(len(probs))]
			}
		}
		for n := r.Intn(400); n > 0; n-- {
			var rows [2][]int
			for v := range p {
				for i, pi := range p[v] {
					if r.Float64() < pi {
						rows[v] = append(rows[v], i)
					}
				}
			}
			if err := d.AddRow(rows[0], rows[1]); err != nil {
				return false
			}
		}
		c := NewCoder(d)
		for _, v := range []dataset.View{dataset.Left, dataset.Right} {
			want := 0.0
			for t := 0; t < d.Size(); t++ {
				want += c.SetLen(v, d.Row(v, t).Indices())
			}
			got := c.DataLen(d, v)
			if math.IsNaN(got) || math.Abs(got-want) > 1e-12*math.Max(math.Abs(got), math.Abs(want)) {
				t.Logf("seed %d view %v: DataLen %v, row-major %v", seed, v, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
