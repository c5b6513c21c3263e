// Package dataset implements Boolean two-view datasets: a bag of
// transactions, each a pair of itemsets over two disjoint vocabularies
// I_L and I_R ("left" and "right" views). It also provides the
// preprocessing substrate used by the paper's evaluation: equal-height
// discretization of numeric attributes, categorical expansion, and
// density-balanced splitting of a single Boolean table into two views.
package dataset

import (
	"fmt"
	"math/bits"
	"sync"

	"twoview/internal/bitset"
	"twoview/internal/itemset"
)

// View selects one of the two sides of a dataset.
type View int

const (
	// Left is the view conventionally denoted D_L over I_L.
	Left View = iota
	// Right is the view conventionally denoted D_R over I_R.
	Right
)

// Opposite returns the other view.
func (v View) Opposite() View {
	if v == Left {
		return Right
	}
	return Left
}

// String implements fmt.Stringer.
func (v View) String() string {
	if v == Left {
		return "L"
	}
	return "R"
}

// Dataset is a Boolean two-view dataset. Rows are stored per view as
// bitsets over that view's vocabulary, carved from per-view batches
// that grow with the dataset, so a row costs no allocation of its own.
// A Row pointer stays valid and unchanged for the life of the dataset:
// adding rows carves new batches and never moves a carved row. Column
// tidsets are built lazily by Columns and cached. A Dataset must be
// built with New and AddRow (or the readers in this package); the zero
// value is not usable. Its read methods are safe for concurrent use;
// AddRow must not run concurrently with them.
type Dataset struct {
	names [2][]string
	rows  [2][]*bitset.Set
	// free holds each view's carved rows not yet handed out by newRow.
	free [2][]bitset.Set

	// cols holds each view's lazily built tidsets (width |D|) and supps
	// their sizes, built once per view under colsOnce.
	colsOnce [2]sync.Once
	cols     [2][]*bitset.Set
	supps    [2][]int
}

// A view's first row batch holds minRowBatch rows, and each later one
// as many rows as the view already has, up to maxRowBatch: few batches
// for a large dataset, and an unused tail that stays small next to it.
// Without the cap up to half of the last batch would sit unused: 1.3 MB
// on adult's 48,842 rows, enough to raise the peak heap of a set-up.
const minRowBatch, maxRowBatch = 16, 1024

// New returns an empty dataset whose vocabularies are given by item names.
// Names must be unique within a view; they may be autogenerated via
// GenericNames when no meaningful names exist.
func New(namesL, namesR []string) (*Dataset, error) {
	for _, names := range [][]string{namesL, namesR} {
		seen := make(map[string]bool, len(names))
		for _, n := range names {
			if n == "" {
				return nil, fmt.Errorf("dataset: empty item name")
			}
			if seen[n] {
				return nil, fmt.Errorf("dataset: duplicate item name %q", n)
			}
			seen[n] = true
		}
	}
	return &Dataset{names: [2][]string{
		append([]string(nil), namesL...),
		append([]string(nil), namesR...),
	}}, nil
}

// MustNew is New for static inputs known to be valid; it panics on error.
func MustNew(namesL, namesR []string) *Dataset {
	d, err := New(namesL, namesR)
	if err != nil {
		panic(err)
	}
	return d
}

// GenericNames returns n names with the given prefix: p0, p1, ...
func GenericNames(prefix string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s%d", prefix, i)
	}
	return out
}

// AddRow appends a transaction given the item ids present in each view.
// Ids must be within range; duplicates are tolerated. A rejected row
// leaves the dataset unchanged.
func (d *Dataset) AddRow(left, right []int) error {
	for _, i := range left {
		if i < 0 || i >= d.Items(Left) {
			return fmt.Errorf("dataset: left item %d out of range [0,%d)", i, d.Items(Left))
		}
	}
	for _, i := range right {
		if i < 0 || i >= d.Items(Right) {
			return fmt.Errorf("dataset: right item %d out of range [0,%d)", i, d.Items(Right))
		}
	}
	for v, ids := range [2][]int{left, right} {
		row := d.newRow(View(v))
		for _, i := range ids {
			row.Add(i)
		}
	}
	d.colsOnce, d.cols, d.supps = [2]sync.Once{}, [2][]*bitset.Set{}, [2][]int{} // invalidate column cache
	return nil
}

// newRow appends an empty row to view v and returns it. It is the only
// place rows are made: it carves them from the view's current batch,
// starting a new one when that runs out.
func (d *Dataset) newRow(v View) *bitset.Set {
	if len(d.free[v]) == 0 {
		d.free[v] = bitset.NewBatch(min(max(minRowBatch, len(d.rows[v])), maxRowBatch), len(d.names[v]))
	}
	row := &d.free[v][0]
	d.free[v] = d.free[v][1:]
	d.rows[v] = append(d.rows[v], row)
	return row
}

// Size returns |D|, the number of transactions.
func (d *Dataset) Size() int { return len(d.rows[Left]) }

// Items returns |I_v|, the vocabulary size of view v.
func (d *Dataset) Items(v View) int { return len(d.names[v]) }

// Names returns the item names of view v. The slice must not be modified.
func (d *Dataset) Names(v View) []string { return d.names[v] }

// Name returns the name of item i in view v.
func (d *Dataset) Name(v View, i int) string { return d.Names(v)[i] }

// Row returns transaction t projected on view v as a bitset over I_v.
// The returned set must not be modified.
func (d *Dataset) Row(v View, t int) *bitset.Set { return d.rows[v][t] }

// Columns returns the tidset of every item of view v (bit t set iff item
// occurs in transaction t). Built once on first use and cached; the
// returned sets must not be modified.
func (d *Dataset) Columns(v View) []*bitset.Set {
	d.colsOnce[v].Do(func() { d.cols[v], d.supps[v] = transpose(d.rows[v], d.Items(v)) })
	return d.cols[v]
}

// transpose turns rows over n items into the n item tidsets and their
// sizes. It walks the rows 64 at a time: each block's set bits are
// gathered into one word per item, which is then the item's tidset word
// for that block.
func transpose(rows []*bitset.Set, n int) ([]*bitset.Set, []int) {
	batch := bitset.NewBatch(n, len(rows))
	cols, words := make([]*bitset.Set, n), make([][]uint64, n)
	for i := range batch {
		cols[i], words[i] = &batch[i], batch[i].Words()
	}
	supps, acc := make([]int, n), make([]uint64, n)
	for lo := 0; lo < len(rows); lo += bitset.WordBits {
		block := rows[lo:min(lo+bitset.WordBits, len(rows))]
		for t, row := range block {
			bit := uint64(1) << uint(t)
			for k, w := range row.Words() {
				for w != 0 {
					acc[k*bitset.WordBits+bits.TrailingZeros64(w)] |= bit
					w &= w - 1
				}
			}
		}
		for i, w := range acc {
			words[i][lo/bitset.WordBits] = w
			supps[i] += bits.OnesCount64(w)
			acc[i] = 0
		}
	}
	return cols, supps
}

// ItemSupport returns |supp({i})| for item i of view v, counted when the
// columns are built.
func (d *Dataset) ItemSupport(v View, i int) int {
	d.Columns(v)
	return d.supps[v][i]
}

// SupportSet returns the tidset of itemset X within view v as a fresh
// bitset (the intersection of the item columns). The empty itemset is
// supported by every transaction.
func (d *Dataset) SupportSet(v View, x itemset.Itemset) *bitset.Set {
	tids := bitset.New(d.Size())
	d.SupportSetInto(tids, v, x)
	return tids
}

// SupportSetInto writes the tidset of itemset X within view v into dst,
// which must have width Size(), and returns its size, counted by the
// last intersection. It is SupportSet without the allocation, for bulk
// materialization into pre-carved sets.
func (d *Dataset) SupportSetInto(dst *bitset.Set, v View, x itemset.Itemset) int {
	dst.Fill()
	if len(x) == 0 {
		return d.Size()
	}
	cols := d.Columns(v)
	for _, i := range x[:len(x)-1] {
		dst.And(cols[i])
	}
	return bitset.IntersectIntoCount(dst, dst, cols[x[len(x)-1]])
}

// Support returns |supp(X)| within view v.
func (d *Dataset) Support(v View, x itemset.Itemset) int {
	return d.SupportSet(v, x).Count()
}

// JointSupportSet returns the tidset of transactions where X occurs in the
// left view and Y occurs in the right view.
func (d *Dataset) JointSupportSet(x, y itemset.Itemset) *bitset.Set {
	tids := d.SupportSet(Left, x)
	tids.And(d.SupportSet(Right, y))
	return tids
}

// Ones returns the total number of set bits in view v: Σ supp(i).
func (d *Dataset) Ones(v View) int {
	d.Columns(v)
	total := 0
	for _, s := range d.supps[v] {
		total += s
	}
	return total
}

// Density returns the fraction of ones in view v (d_L or d_R in Table 1).
func (d *Dataset) Density(v View) float64 {
	cells := d.Size() * d.Items(v)
	if cells == 0 {
		return 0
	}
	return float64(d.Ones(v)) / float64(cells)
}

// Stats summarizes a dataset as in Table 1 of the paper (the uncompressed
// size L(D,∅) is computed by the mdl package, not here).
type Stats struct {
	Size           int
	ItemsL, ItemsR int
	DensityL       float64
	DensityR       float64
}

// Stats returns summary statistics of the dataset.
func (d *Dataset) Stats() Stats {
	return Stats{
		Size:     d.Size(),
		ItemsL:   d.Items(Left),
		ItemsR:   d.Items(Right),
		DensityL: d.Density(Left),
		DensityR: d.Density(Right),
	}
}

// Clone returns a deep copy of the dataset (without the column cache).
func (d *Dataset) Clone() *Dataset {
	c := MustNew(d.names[Left], d.names[Right])
	for t := 0; t < d.Size(); t++ {
		c.copyRow(d, t)
	}
	return c
}

// Subset returns a new dataset containing only the transactions whose
// indices are listed (in the given order). Used by holdout evaluation.
func (d *Dataset) Subset(tids []int) (*Dataset, error) {
	c := MustNew(d.names[Left], d.names[Right])
	for _, t := range tids {
		if t < 0 || t >= d.Size() {
			return nil, fmt.Errorf("dataset: transaction %d out of range [0,%d)", t, d.Size())
		}
		c.copyRow(d, t)
	}
	return c, nil
}

// copyRow appends a copy of transaction t of src, whose vocabularies
// must be d's.
func (d *Dataset) copyRow(src *Dataset, t int) {
	for v := range d.rows {
		d.newRow(View(v)).Copy(src.rows[v][t])
	}
}
