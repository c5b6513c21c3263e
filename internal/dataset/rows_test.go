package dataset

import (
	"math/rand"
	"testing"

	"twoview/internal/bitset"
)

// randomRow draws each of n items with probability 1/3.
func randomRow(r *rand.Rand, n int) []int {
	var ids []int
	for i := 0; i < n; i++ {
		if r.Intn(3) == 0 {
			ids = append(ids, i)
		}
	}
	return ids
}

// randomDataset returns a dataset of size random rows over nL and nR
// items, together with the rows' item ids.
func randomDataset(t *testing.T, seed int64, size, nL, nR int) (*Dataset, [][2][]int) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	d := MustNew(GenericNames("l", nL), GenericNames("r", nR))
	var rows [][2][]int
	for i := 0; i < size; i++ {
		row := [2][]int{randomRow(r, nL), randomRow(r, nR)}
		if err := d.AddRow(row[0], row[1]); err != nil {
			t.Fatal(err)
		}
		rows = append(rows, row)
	}
	return d, rows
}

// checkRows fails unless every row of d holds exactly the given ids.
func checkRows(t *testing.T, d *Dataset, rows [][2][]int) {
	t.Helper()
	if d.Size() != len(rows) {
		t.Fatalf("Size = %d, want %d", d.Size(), len(rows))
	}
	for i, row := range rows {
		for v, ids := range row {
			if got := d.Row(View(v), i).Indices(); !intsEqual(got, ids) {
				t.Fatalf("row %d view %s = %v, want %v", i, View(v), got, ids)
			}
		}
	}
}

// A Row pointer taken early keeps its identity and bits while thousands
// more rows are carved from later batches.
func TestRowPointersSurviveGrowth(t *testing.T) {
	d, rows := randomDataset(t, 1, 40, 70, 5)
	var early [][2]*bitset.Set
	for i := range rows {
		early = append(early, [2]*bitset.Set{d.Row(Left, i), d.Row(Right, i)})
	}
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 5000; i++ {
		row := [2][]int{randomRow(r, 70), randomRow(r, 5)}
		if err := d.AddRow(row[0], row[1]); err != nil {
			t.Fatal(err)
		}
		rows = append(rows, row)
	}
	for i, ptrs := range early {
		if ptrs[0] != d.Row(Left, i) || ptrs[1] != d.Row(Right, i) {
			t.Fatalf("row %d moved", i)
		}
	}
	checkRows(t, d, rows)
}

// A rejected AddRow appends nothing to either view, at a batch boundary
// and inside a batch, and the next row is carved correctly.
func TestAddRowRejectedAppendsNothing(t *testing.T) {
	for _, size := range []int{0, minRowBatch, minRowBatch + 3} {
		d, rows := randomDataset(t, 3, size, 4, 3)
		if err := d.AddRow([]int{0, 1}, []int{3}); err == nil {
			t.Fatal("out-of-range right item accepted")
		}
		if err := d.AddRow([]int{4}, []int{0}); err == nil {
			t.Fatal("out-of-range left item accepted")
		}
		if len(d.rows[Left]) != size || len(d.rows[Right]) != size {
			t.Fatalf("size %d: rejected rows appended: %d left, %d right", size, len(d.rows[Left]), len(d.rows[Right]))
		}
		if err := d.AddRow([]int{3}, []int{1, 2}); err != nil {
			t.Fatal(err)
		}
		checkRows(t, d, append(rows, [2][]int{{3}, {1, 2}}))
	}
}

// Clone and Subset rows share no words with their source's, across
// batch boundaries in both datasets.
func TestCloneAndSubsetRowsIndependent(t *testing.T) {
	d, rows := randomDataset(t, 4, 3*minRowBatch+5, 6, 66)
	c := d.Clone()
	tids := []int{0, minRowBatch - 1, minRowBatch, 2*minRowBatch + 1, 3 * minRowBatch, 0}
	s, err := d.Subset(tids)
	if err != nil {
		t.Fatal(err)
	}
	var sub [][2][]int
	for _, tid := range tids {
		sub = append(sub, rows[tid])
	}
	// Grow all three across a batch boundary, then set a bit in every
	// source row: the copies must keep their own rows.
	var added [][2][]int
	for i := 0; i < minRowBatch; i++ {
		added = append(added, [2][]int{{5}, nil})
	}
	for _, x := range []*Dataset{d, c, s} {
		for _, row := range added {
			if err := x.AddRow(row[0], row[1]); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := range rows {
		d.Row(Left, i).Add(5)
		d.Row(Right, i).Add(65)
	}
	checkRows(t, c, append(append([][2][]int(nil), rows...), added...))
	checkRows(t, s, append(sub, added...))
}

// Columns is the transposition of the rows after the cache is
// invalidated inside a batch, with a vocabulary wider than one word
// and a row count that ends inside a 64-row block.
func TestColumnsAfterMidBatchInvalidation(t *testing.T) {
	d, rows := randomDataset(t, 5, 2*minRowBatch+3, 70, 3)
	d.Columns(Left)
	d.Columns(Right)
	r := rand.New(rand.NewSource(6))
	for i := 0; i < 100; i++ {
		row := [2][]int{randomRow(r, 70), randomRow(r, 3)}
		if err := d.AddRow(row[0], row[1]); err != nil {
			t.Fatal(err)
		}
		rows = append(rows, row)
	}
	for v := Left; v <= Right; v++ {
		cols := d.Columns(v)
		for i, col := range cols {
			var want []int
			for tid, row := range rows {
				for _, id := range row[v] {
					if id == i {
						want = append(want, tid)
					}
				}
			}
			if got := col.Indices(); col.Len() != len(rows) || !intsEqual(got, want) {
				t.Fatalf("view %s column %d = %v (width %d), want %v (width %d)", v, i, got, col.Len(), want, len(rows))
			}
			if got := d.ItemSupport(v, i); got != len(want) {
				t.Fatalf("view %s item %d support = %d, want %d", v, i, got, len(want))
			}
		}
	}
}
