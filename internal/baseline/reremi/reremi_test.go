package reremi

import (
	"math"
	"math/rand"
	"testing"

	"twoview/internal/dataset"
	"twoview/internal/itemset"
)

// redescData plants two redescriptions: ({l0,l1},{r0}) with Jaccard 1 and
// ({l2},{r1}) with high but imperfect Jaccard.
func redescData(t *testing.T) *dataset.Dataset {
	t.Helper()
	d := dataset.MustNew([]string{"l0", "l1", "l2", "l3"}, []string{"r0", "r1", "r2"})
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 120; i++ {
		var left, right []int
		if i%3 == 0 { // 40 rows: l0 l1 <=> r0
			left = append(left, 0, 1)
			right = append(right, 0)
		} else if i%3 == 1 { // l0 alone, no r0
			left = append(left, 0)
		}
		if i%4 == 0 { // 30 rows: l2 <=> r1 ...
			left = append(left, 2)
			if i != 0 { // ... except one row
				right = append(right, 1)
			}
		}
		if r.Intn(6) == 0 {
			left = append(left, 3)
		}
		if r.Intn(6) == 0 {
			right = append(right, 2)
		}
		if err := d.AddRow(left, right); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

func TestMineFindsPlantedRedescriptions(t *testing.T) {
	d := redescData(t)
	rds := Mine(d, Options{MinJaccard: 0.5, MinSupport: 5})
	if len(rds) == 0 {
		t.Fatal("nothing found")
	}
	// The perfect redescription must be first (Jaccard 1).
	first := rds[0]
	if math.Abs(first.Jaccard-1) > 1e-12 {
		t.Fatalf("best Jaccard = %v, want 1 (%v / %v)", first.Jaccard, first.X, first.Y)
	}
	if !first.Y.Equal(itemset.New(0)) || !first.X.Contains(1) {
		t.Fatalf("unexpected best redescription %v / %v", first.X, first.Y)
	}
	// Some accepted redescription must capture the imperfect planted pair
	// l2 ~ r1 with high accuracy (other, noisier rules may contain the
	// same items with lower Jaccard — redescription sets are redundant).
	foundL2 := false
	for _, rd := range rds {
		if rd.X.Contains(2) && rd.Y.Contains(1) && rd.Jaccard >= 0.9 {
			foundL2 = true
		}
	}
	if !foundL2 {
		t.Fatal("imperfect planted redescription not found accurately")
	}
}

func TestMineThresholds(t *testing.T) {
	d := redescData(t)
	for _, rd := range Mine(d, Options{MinJaccard: 0.8, MinSupport: 10}) {
		if rd.Jaccard < 0.8 {
			t.Fatalf("Jaccard %v below threshold", rd.Jaccard)
		}
		if rd.Supp < 10 {
			t.Fatalf("support %d below threshold", rd.Supp)
		}
	}
}

func TestMineMaxItemsRespected(t *testing.T) {
	d := redescData(t)
	for _, rd := range Mine(d, Options{MinJaccard: 0.1, MaxItems: 1}) {
		if len(rd.X) > 1 || len(rd.Y) > 1 {
			t.Fatalf("query too long: %v / %v", rd.X, rd.Y)
		}
	}
}

func TestMineMaxRules(t *testing.T) {
	d := redescData(t)
	rds := Mine(d, Options{MinJaccard: 0.01, MaxRules: 2})
	if len(rds) > 2 {
		t.Fatalf("MaxRules violated: %d", len(rds))
	}
}

func TestMineDeterministic(t *testing.T) {
	d := redescData(t)
	a := Mine(d, Options{MinJaccard: 0.3})
	b := Mine(d, Options{MinJaccard: 0.3})
	if len(a) != len(b) {
		t.Fatal("not deterministic")
	}
	for i := range a {
		if !a[i].X.Equal(b[i].X) || !a[i].Y.Equal(b[i].Y) {
			t.Fatal("redescription mismatch")
		}
	}
}

func TestJaccardDefinition(t *testing.T) {
	d := redescData(t)
	rds := Mine(d, Options{MinJaccard: 0.3})
	for _, rd := range rds {
		suppX := d.SupportSet(dataset.Left, rd.X)
		suppY := d.SupportSet(dataset.Right, rd.Y)
		inter := 0
		suppX.ForEach(func(i int) bool {
			if suppY.Contains(i) {
				inter++
			}
			return true
		})
		union := suppX.Count() + suppY.Count() - inter
		if rd.Supp != inter {
			t.Fatalf("Supp %d != |X∩Y| %d", rd.Supp, inter)
		}
		if math.Abs(rd.Jaccard-float64(inter)/float64(union)) > 1e-12 {
			t.Fatalf("Jaccard mismatch for %v/%v", rd.X, rd.Y)
		}
	}
}
