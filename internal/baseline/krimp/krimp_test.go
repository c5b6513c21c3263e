package krimp

import (
	"math"
	"math/rand"
	"testing"

	"twoview/internal/core"
	"twoview/internal/dataset"
	"twoview/internal/itemset"
	"twoview/internal/mdl"
)

// patternData has a strong joint pattern spanning both views ({l0,l1,r0})
// plus noise, so KRIMP should accept at least that itemset.
func patternData(t testing.TB) *dataset.Dataset {
	t.Helper()
	r := rand.New(rand.NewSource(11))
	d := dataset.MustNew(dataset.GenericNames("l", 4), dataset.GenericNames("r", 4))
	for i := 0; i < 100; i++ {
		var left, right []int
		if i%2 == 0 {
			left = append(left, 0, 1)
			right = append(right, 0)
		}
		for j := 2; j < 4; j++ {
			if r.Intn(4) == 0 {
				left = append(left, j)
			}
			if r.Intn(4) == 0 {
				right = append(right, j)
			}
		}
		if err := d.AddRow(left, right); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

func TestMineCompresses(t *testing.T) {
	d := patternData(t)
	res, err := Mine(d, Options{MinSupport: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalLen >= res.BaselineLen {
		t.Fatalf("KRIMP did not compress: %v >= %v", res.TotalLen, res.BaselineLen)
	}
	if ratio(res) >= 100 {
		t.Fatalf("Ratio = %v", ratio(res))
	}
	if res.Accepted == 0 {
		t.Fatal("no itemsets accepted")
	}
	// The planted pattern (joined ids {0,1,4}) must be in the table.
	found := false
	for _, e := range res.CT.Entries() {
		if e.Items.Equal(itemset.New(0, 1, 4)) && e.Usage > 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("planted itemset not accepted")
	}
}

func TestCoverDisjointAndComplete(t *testing.T) {
	d := patternData(t)
	res, err := Mine(d, Options{MinSupport: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Re-cover and verify: usages sum to at least the number of
	// transactions, and every transaction is covered exactly (cover is a
	// partition of the transaction's items).
	j := joinViews(d)
	ct := res.CT
	ct.coverAll(j)
	for _, row := range j.rows {
		remaining := row.Clone()
		for _, e := range ct.Entries() {
			if subsetOfBits(e.Items, remaining) {
				for _, it := range e.Items {
					remaining.Remove(it)
				}
			}
		}
		if !remaining.Empty() {
			t.Fatal("transaction not fully covered")
		}
	}
	total := 0
	for _, e := range ct.Entries() {
		if e.Usage < 0 {
			t.Fatal("negative usage")
		}
		total += e.Usage
	}
	if total == 0 {
		t.Fatal("zero total usage")
	}
}

func TestStandardOrders(t *testing.T) {
	a := &Entry{Items: itemset.New(0, 1, 2), Supp: 5}
	b := &Entry{Items: itemset.New(0, 1), Supp: 9}
	if !standardCoverLess(a, b) {
		t.Fatal("cover order must put longer sets first")
	}
	c := &Entry{Items: itemset.New(0, 2), Supp: 9}
	if !standardCoverLess(b, c) {
		t.Fatal("cover order must break length ties lexicographically at equal support")
	}
	dEnt := &Entry{Items: itemset.New(0, 3), Supp: 11}
	if standardCoverLess(b, dEnt) {
		t.Fatal("cover order must put higher support first at equal length")
	}
}

func TestRatioBaselineGuard(t *testing.T) {
	r := &Result{TotalLen: 10, BaselineLen: 0}
	if ratio(r) != 100 {
		t.Fatal("zero baseline should give 100")
	}
}

func TestToTranslationTable(t *testing.T) {
	d := patternData(t)
	res, err := Mine(d, Options{MinSupport: 2})
	if err != nil {
		t.Fatal(err)
	}
	tab, dropped := ToTranslationTable(res, d)
	if tab.Size()+len(dropped) == 0 {
		t.Fatal("conversion produced nothing at all")
	}
	coder := mdl.NewCoder(d)
	extra := SingleViewTableLen(d, coder, dropped)
	if (len(dropped) > 0) != (extra > 0) {
		t.Fatalf("dropped=%d but extra length %v", len(dropped), extra)
	}
	// Each dropped itemset costs at least its direction bit.
	if extra < float64(len(dropped)) {
		t.Fatalf("extra length %v below direction-bit floor %d", extra, len(dropped))
	}
	for _, r := range tab.Rules {
		if r.Dir != core.Both {
			t.Fatal("KRIMP-derived rules must be bidirectional")
		}
		if r.X.Empty() || r.Y.Empty() {
			t.Fatal("single-view itemset leaked into the table")
		}
	}
	if err := tab.Validate(d); err != nil {
		t.Fatal(err)
	}
}

func TestPruningNeverWorse(t *testing.T) {
	d := patternData(t)
	plain, err := Mine(d, Options{MinSupport: 2})
	if err != nil {
		t.Fatal(err)
	}
	pruned, err := Mine(d, Options{MinSupport: 2, Pruning: true})
	if err != nil {
		t.Fatal(err)
	}
	if pruned.TotalLen > plain.TotalLen+1e-9 {
		t.Fatalf("pruning made compression worse: %v > %v", pruned.TotalLen, plain.TotalLen)
	}
}

func TestMineDeterministic(t *testing.T) {
	d := patternData(t)
	a, err := Mine(d, Options{MinSupport: 2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Mine(d, Options{MinSupport: 2})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a.TotalLen-b.TotalLen) > 1e-12 || a.Accepted != b.Accepted {
		t.Fatal("KRIMP not deterministic")
	}
}

func TestJoinViews(t *testing.T) {
	d := dataset.MustNew([]string{"a", "b"}, []string{"p"})
	d.AddRow([]int{1}, []int{0})
	j := joinViews(d)
	if j.n != 3 {
		t.Fatalf("joined alphabet = %d", j.n)
	}
	if !j.rows[0].Contains(1) || !j.rows[0].Contains(2) || j.rows[0].Contains(0) {
		t.Fatalf("joined row wrong: %v", j.rows[0])
	}
	if j.cols[2].Count() != 1 {
		t.Fatal("joined columns wrong")
	}
}

// The incremental cover maintenance must agree exactly with a from-scratch
// re-cover: same usages and same total length.
func TestIncrementalCoverMatchesFull(t *testing.T) {
	d := patternData(t)
	for _, pruning := range []bool{false, true} {
		res, err := Mine(d, Options{MinSupport: 2, Pruning: pruning})
		if err != nil {
			t.Fatal(err)
		}
		got := map[string]int{}
		for _, e := range res.CT.Entries() {
			got[e.Items.String()] = e.Usage
		}
		j := joinViews(d)
		res.CT.coverAll(j)
		for _, e := range res.CT.Entries() {
			if got[e.Items.String()] != e.Usage {
				t.Fatalf("pruning=%v: usage of %v: incremental %d, full %d",
					pruning, e.Items, got[e.Items.String()], e.Usage)
			}
		}
	}
}

// ratio returns the KRIMP compression ratio L(CT,D)/L(ST,D) of r in
// percent.
func ratio(r *Result) float64 {
	if r.BaselineLen == 0 {
		return 100
	}
	return 100 * r.TotalLen / r.BaselineLen
}
