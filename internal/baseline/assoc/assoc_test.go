package assoc

import (
	"math"
	"testing"

	"twoview/internal/core"
	"twoview/internal/dataset"
	"twoview/internal/itemset"
)

func testData(t *testing.T) *dataset.Dataset {
	t.Helper()
	d := dataset.MustNew([]string{"a", "b"}, []string{"p", "q"})
	rows := [][2][]int{
		{{0}, {0}},
		{{0}, {0}},
		{{0}, {0}},
		{{0}, {1}},
		{{1}, {0, 1}},
		{{1}, {1}},
	}
	for _, r := range rows {
		if err := d.AddRow(r[0], r[1]); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

func find(rules []Rule, x, y itemset.Itemset) *Rule {
	for i := range rules {
		if rules[i].X.Equal(x) && rules[i].Y.Equal(y) {
			return &rules[i]
		}
	}
	return nil
}

func TestMineConfidenceAndDirections(t *testing.T) {
	d := testData(t)
	rules, err := Mine(d, Options{MinSupport: 1, MinConfidence: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	// a<->p: supp 3, conf 3/4 = 0.75 in both directions → bidirectional.
	r := find(rules, itemset.New(0), itemset.New(0))
	if r == nil || r.Dir != core.Both || math.Abs(r.Conf-0.75) > 1e-12 {
		t.Fatalf("a<->p rule = %+v", r)
	}
	// b->q: supp 2, conf fwd 2/2 = 1, bwd 2/3 < 0.7 → Forward with conf 1.
	r = find(rules, itemset.New(1), itemset.New(1))
	if r == nil || r.Dir != core.Forward || math.Abs(r.Conf-1) > 1e-12 {
		t.Fatalf("b->q rule = %+v", r)
	}
	// a-q: conf fwd 1/4, bwd 1/4 → below threshold, absent.
	if find(rules, itemset.New(0), itemset.New(1)) != nil {
		t.Fatal("low-confidence rule present")
	}
}

func TestMineMinSupport(t *testing.T) {
	d := testData(t)
	rules, err := Mine(d, Options{MinSupport: 3, MinConfidence: 0})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rules {
		if r.Supp < 3 {
			t.Fatalf("rule %v/%v below support", r.X, r.Y)
		}
	}
}

func TestCountMatchesMine(t *testing.T) {
	d := testData(t)
	opt := Options{MinSupport: 1, MinConfidence: 0.7}
	rules, err := Mine(d, opt)
	if err != nil {
		t.Fatal(err)
	}
	n, err := Count(d, opt)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(rules) {
		t.Fatalf("Count = %d, Mine = %d", n, len(rules))
	}
}

func TestSortedByConfidence(t *testing.T) {
	d := testData(t)
	rules, err := Mine(d, Options{MinSupport: 1, MinConfidence: 0})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(rules); i++ {
		if rules[i].Conf > rules[i-1].Conf {
			t.Fatal("rules not sorted by confidence")
		}
	}
}
