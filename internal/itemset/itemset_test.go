package itemset

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestNewCanonicalizes(t *testing.T) {
	s := New(5, 1, 3, 1, 5)
	if !s.Equal(Itemset{1, 3, 5}) {
		t.Fatalf("New = %v", s)
	}
	if !s.IsCanonical() {
		t.Fatal("New result not canonical")
	}
	if New() != nil {
		t.Fatal("New() should be nil")
	}
}

func TestContains(t *testing.T) {
	s := New(2, 4, 8)
	for _, x := range []int{2, 4, 8} {
		if !s.Contains(x) {
			t.Fatalf("Contains(%d) = false", x)
		}
	}
	for _, x := range []int{1, 3, 9, -1} {
		if s.Contains(x) {
			t.Fatalf("Contains(%d) = true", x)
		}
	}
	if Itemset(nil).Contains(0) {
		t.Fatal("empty set contains nothing")
	}
}

func TestSubsetOf(t *testing.T) {
	cases := []struct {
		s, t Itemset
		want bool
	}{
		{nil, nil, true},
		{nil, New(1), true},
		{New(1), nil, false},
		{New(1, 3), New(1, 2, 3), true},
		{New(1, 4), New(1, 2, 3), false},
		{New(1, 2, 3), New(1, 2, 3), true},
		{New(0), New(1, 2), false},
	}
	for _, c := range cases {
		if got := c.s.SubsetOf(c.t); got != c.want {
			t.Errorf("%v ⊆ %v = %v, want %v", c.s, c.t, got, c.want)
		}
	}
}

func TestAlgebra(t *testing.T) {
	a, b := New(1, 3, 5), New(3, 4, 5, 7)
	if got := a.Union(b); !got.Equal(New(1, 3, 4, 5, 7)) {
		t.Fatalf("Union = %v", got)
	}
	if got := a.Intersect(b); !got.Equal(New(3, 5)) {
		t.Fatalf("Intersect = %v", got)
	}
	if got := a.Minus(b); !got.Equal(New(1)) {
		t.Fatalf("Minus = %v", got)
	}
	if got := b.Minus(a); !got.Equal(New(4, 7)) {
		t.Fatalf("Minus = %v", got)
	}
	if !a.Intersects(b) {
		t.Fatal("Intersects = false")
	}
	if a.Intersects(New(2, 6)) {
		t.Fatal("disjoint sets must not intersect")
	}
	if Itemset(nil).Union(nil) != nil {
		t.Fatal("nil ∪ nil should be nil")
	}
}

func TestCompare(t *testing.T) {
	cases := []struct {
		a, b Itemset
		want int
	}{
		{nil, nil, 0},
		{New(1), nil, 1},
		{nil, New(1), -1},
		{New(1, 2), New(1, 3), -1},
		{New(2), New(1, 2), -1}, // shorter first
		{New(1, 2), New(1, 2), 0},
		{New(5), New(3), 1},
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestStringsAndFormat(t *testing.T) {
	s := New(0, 2)
	if s.String() != "{0 2}" {
		t.Fatalf("String = %q", s.String())
	}
	names := []string{"alpha", "beta", "gamma"}
	if got := s.Format(names); got != "alpha, gamma" {
		t.Fatalf("Format = %q", got)
	}
	if got := New(0, 7).Format(names); got != "alpha, #7" {
		t.Fatalf("Format fallback = %q", got)
	}
}

func TestClone(t *testing.T) {
	s := New(1, 2)
	c := s.Clone()
	c[0] = 99
	if s[0] != 1 {
		t.Fatal("Clone shares storage")
	}
	if Itemset(nil).Clone() != nil {
		t.Fatal("Clone(nil) should be nil")
	}
}

// --- property-based tests against map semantics ---

func fromRef(m map[int]bool) Itemset {
	var xs []int
	for x, ok := range m {
		if ok {
			xs = append(xs, x)
		}
	}
	sort.Ints(xs)
	return Itemset(xs)
}

func randSet(r *rand.Rand) (Itemset, map[int]bool) {
	m := map[int]bool{}
	n := r.Intn(12)
	for i := 0; i < n; i++ {
		m[r.Intn(20)] = true
	}
	return fromRef(m), m
}

func TestQuickAlgebraMatchesMaps(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, ma := randSet(r)
		b, mb := randSet(r)
		union, inter, minus := map[int]bool{}, map[int]bool{}, map[int]bool{}
		for x := range ma {
			union[x] = true
			if mb[x] {
				inter[x] = true
			} else {
				minus[x] = true
			}
		}
		for x := range mb {
			union[x] = true
		}
		return a.Union(b).Equal(fromRef(union)) &&
			a.Intersect(b).Equal(fromRef(inter)) &&
			a.Minus(b).Equal(fromRef(minus)) &&
			a.Intersects(b) == (len(inter) > 0) &&
			a.SubsetOf(b) == (len(minus) == 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickUnionAbsorption(t *testing.T) {
	// (a ∪ b) \ b == a \ b and (a ∩ b) ⊆ a ⊆ (a ∪ b).
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, _ := randSet(r)
		b, _ := randSet(r)
		u := a.Union(b)
		return u.Minus(b).Equal(a.Minus(b)) &&
			a.Intersect(b).SubsetOf(a) &&
			a.SubsetOf(u) &&
			u.IsCanonical()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// Intersect and Minus complete the set algebra the tests check Union
// and Intersects against; no miner needs them.

// Intersect returns s ∩ t.
func (s Itemset) Intersect(t Itemset) Itemset {
	var out Itemset
	i, j := 0, 0
	for i < len(s) && j < len(t) {
		switch {
		case s[i] < t[j]:
			i++
		case s[i] > t[j]:
			j++
		default:
			out = append(out, s[i])
			i++
			j++
		}
	}
	return out
}

// Minus returns s \ t.
func (s Itemset) Minus(t Itemset) Itemset {
	var out Itemset
	i, j := 0, 0
	for i < len(s) {
		switch {
		case j >= len(t) || s[i] < t[j]:
			out = append(out, s[i])
			i++
		case s[i] > t[j]:
			j++
		default:
			i++
			j++
		}
	}
	return out
}
