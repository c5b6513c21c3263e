package dataset

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"twoview/internal/itemset"
)

func toy(t *testing.T) *Dataset {
	t.Helper()
	d := MustNew(
		[]string{"A", "B", "C", "D"},
		[]string{"P", "Q", "S"},
	)
	rows := [][2][]int{
		{{0, 1}, {0, 2}},
		{{1, 2}, {1}},
		{{2}, {1, 2}},
		{{0, 1, 2}, {0}},
		{{3}, {}},
	}
	for _, r := range rows {
		if err := d.AddRow(r[0], r[1]); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

func TestNewValidation(t *testing.T) {
	if _, err := New([]string{"a", "a"}, []string{"b"}); err == nil {
		t.Fatal("duplicate names accepted")
	}
	if _, err := New([]string{""}, []string{"b"}); err == nil {
		t.Fatal("empty name accepted")
	}
	if _, err := New([]string{"a"}, []string{"a"}); err != nil {
		t.Fatal("same name in different views must be allowed:", err)
	}
}

func TestAddRowValidation(t *testing.T) {
	d := MustNew([]string{"a"}, []string{"b"})
	if err := d.AddRow([]int{1}, nil); err == nil {
		t.Fatal("out-of-range left item accepted")
	}
	if err := d.AddRow(nil, []int{-1}); err == nil {
		t.Fatal("out-of-range right item accepted")
	}
	if err := d.AddRow([]int{0}, []int{0}); err != nil {
		t.Fatal(err)
	}
	if d.Size() != 1 {
		t.Fatalf("Size = %d", d.Size())
	}
}

func TestBasicAccessors(t *testing.T) {
	d := toy(t)
	if d.Size() != 5 || d.Items(Left) != 4 || d.Items(Right) != 3 {
		t.Fatalf("dims = %d,%d,%d", d.Size(), d.Items(Left), d.Items(Right))
	}
	if d.Name(Left, 3) != "D" || d.Name(Right, 2) != "S" {
		t.Fatal("names wrong")
	}
	if Left.Opposite() != Right || Right.Opposite() != Left {
		t.Fatal("Opposite wrong")
	}
	if Left.String() != "L" || Right.String() != "R" {
		t.Fatal("View.String wrong")
	}
	if !d.Row(Left, 0).ContainsAll([]int{0, 1}) || d.Row(Left, 0).Count() != 2 {
		t.Fatal("Row(Left,0) wrong")
	}
	if d.Row(Right, 4).Count() != 0 {
		t.Fatal("empty right side expected for row 4")
	}
}

func TestColumnsAndSupport(t *testing.T) {
	d := toy(t)
	colsL := d.Columns(Left)
	if got := colsL[1].Indices(); !intsEqual(got, []int{0, 1, 3}) {
		t.Fatalf("column B tids = %v", got)
	}
	if d.ItemSupport(Right, 1) != 2 {
		t.Fatalf("supp(Q) = %d", d.ItemSupport(Right, 1))
	}
	if got := d.Support(Left, itemset.New(1, 2)); got != 2 {
		t.Fatalf("supp({B,C}) = %d", got)
	}
	// Empty itemset is supported everywhere.
	if got := d.Support(Left, nil); got != d.Size() {
		t.Fatalf("supp(∅) = %d", got)
	}
	if got := d.JointSupportSet(itemset.New(0), itemset.New(0)).Indices(); !intsEqual(got, []int{0, 3}) {
		t.Fatalf("joint supp(A;P) = %v", got)
	}
}

func TestColumnCacheInvalidation(t *testing.T) {
	d := toy(t)
	before := d.ItemSupport(Left, 0)
	if err := d.AddRow([]int{0}, []int{0}); err != nil {
		t.Fatal(err)
	}
	if got := d.ItemSupport(Left, 0); got != before+1 {
		t.Fatalf("support after AddRow = %d, want %d", got, before+1)
	}
}

func TestDensityAndStats(t *testing.T) {
	d := toy(t)
	wantL := float64(2+2+1+3+1) / float64(5*4)
	if got := d.Density(Left); math.Abs(got-wantL) > 1e-12 {
		t.Fatalf("DensityL = %v, want %v", got, wantL)
	}
	s := d.Stats()
	if s.Size != 5 || s.ItemsL != 4 || s.ItemsR != 3 {
		t.Fatalf("Stats = %+v", s)
	}
	if s.DensityL != d.Density(Left) || s.DensityR != d.Density(Right) {
		t.Fatal("Stats densities disagree")
	}
	empty := MustNew([]string{"a"}, []string{"b"})
	if empty.Density(Left) != 0 {
		t.Fatal("empty dataset density must be 0")
	}
}

func TestCloneIndependence(t *testing.T) {
	d := toy(t)
	c := d.Clone()
	if err := d.AddRow([]int{0}, []int{0}); err != nil {
		t.Fatal(err)
	}
	if c.Size() != 5 || d.Size() != 6 {
		t.Fatal("Clone not independent")
	}
	if c.Name(Left, 0) != "A" {
		t.Fatal("Clone lost names")
	}
}

func TestSubset(t *testing.T) {
	d := toy(t)
	s, err := d.Subset([]int{4, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if s.Size() != 3 {
		t.Fatalf("Subset size = %d", s.Size())
	}
	if !s.Row(Left, 1).Equal(d.Row(Left, 0)) || !s.Row(Left, 2).Equal(d.Row(Left, 0)) {
		t.Fatal("Subset rows wrong")
	}
	if _, err := d.Subset([]int{99}); err == nil {
		t.Fatal("out-of-range subset accepted")
	}
}

func TestGenericNames(t *testing.T) {
	got := GenericNames("x", 3)
	if len(got) != 3 || got[0] != "x0" || got[2] != "x2" {
		t.Fatalf("GenericNames = %v", got)
	}
}

// Property: for random datasets, Support(X) computed via column tidsets
// equals a direct row scan, and density equals ones/cells.
func TestQuickSupportMatchesRowScan(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nL, nR := 2+r.Intn(6), 2+r.Intn(6)
		d := MustNew(GenericNames("l", nL), GenericNames("r", nR))
		n := 1 + r.Intn(30)
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
			if err := d.AddRow(left, right); err != nil {
				return false
			}
		}
		var x itemset.Itemset
		for j := 0; j < nL; j++ {
			if r.Intn(3) == 0 {
				x = append(x, j)
			}
		}
		want := 0
		for t := 0; t < d.Size(); t++ {
			if d.Row(Left, t).ContainsAll(x) {
				want++
			}
		}
		ones := 0
		for t := 0; t < d.Size(); t++ {
			ones += d.Row(Left, t).Count()
		}
		return d.Support(Left, x) == want &&
			d.Ones(Left) == ones &&
			math.Abs(d.Density(Left)-float64(ones)/float64(n*nL)) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func intsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Two goroutines reading a fresh dataset both reach Columns' first
// build of the same view; under -race this catches an unsynchronized
// cache fill.
func TestColumnsConcurrentFirstBuild(t *testing.T) {
	want := toy(t).ItemSupport(Left, 1)
	d := toy(t)
	var wg sync.WaitGroup
	got := make([]int, 2)
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = d.ItemSupport(Left, 1)
		}()
	}
	wg.Wait()
	for g, n := range got {
		if n != want {
			t.Fatalf("goroutine %d: ItemSupport(Left, 1) = %d, want %d", g, n, want)
		}
	}
}
