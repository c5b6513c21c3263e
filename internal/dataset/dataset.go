// Package dataset implements Boolean two-view datasets: a bag of
// transactions, each a pair of itemsets over two disjoint vocabularies
// I_L and I_R ("left" and "right" views). It also provides the
// preprocessing substrate used by the paper's evaluation: equal-height
// discretization of numeric attributes, categorical expansion, and
// density-balanced splitting of a single Boolean table into two views.
package dataset

import (
	"fmt"
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
// bitsets over that view's vocabulary; column tidsets are built lazily by
// Columns and cached. A Dataset must be built with New and AddRow (or the
// readers in this package); the zero value is not usable. Its read
// methods are safe for concurrent use; AddRow must not run concurrently
// with them.
type Dataset struct {
	namesL, namesR []string
	rowsL, rowsR   []*bitset.Set

	// cols holds each view's lazily built tidsets (width |D|) and supps
	// their sizes, built once per view under colsOnce.
	colsOnce [2]sync.Once
	cols     [2][]*bitset.Set
	supps    [2][]int
}

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
	return &Dataset{
		namesL: append([]string(nil), namesL...),
		namesR: append([]string(nil), namesR...),
	}, nil
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
// Ids must be within range; duplicates are tolerated.
func (d *Dataset) AddRow(left, right []int) error {
	for _, i := range left {
		if i < 0 || i >= len(d.namesL) {
			return fmt.Errorf("dataset: left item %d out of range [0,%d)", i, len(d.namesL))
		}
	}
	for _, i := range right {
		if i < 0 || i >= len(d.namesR) {
			return fmt.Errorf("dataset: right item %d out of range [0,%d)", i, len(d.namesR))
		}
	}
	d.rowsL = append(d.rowsL, bitset.FromIndices(len(d.namesL), left))
	d.rowsR = append(d.rowsR, bitset.FromIndices(len(d.namesR), right))
	d.colsOnce, d.cols, d.supps = [2]sync.Once{}, [2][]*bitset.Set{}, [2][]int{} // invalidate column cache
	return nil
}

// Size returns |D|, the number of transactions.
func (d *Dataset) Size() int { return len(d.rowsL) }

// Items returns |I_v|, the vocabulary size of view v.
func (d *Dataset) Items(v View) int {
	if v == Left {
		return len(d.namesL)
	}
	return len(d.namesR)
}

// Names returns the item names of view v. The slice must not be modified.
func (d *Dataset) Names(v View) []string {
	if v == Left {
		return d.namesL
	}
	return d.namesR
}

// Name returns the name of item i in view v.
func (d *Dataset) Name(v View, i int) string { return d.Names(v)[i] }

// Row returns transaction t projected on view v as a bitset over I_v.
// The returned set must not be modified.
func (d *Dataset) Row(v View, t int) *bitset.Set {
	if v == Left {
		return d.rowsL[t]
	}
	return d.rowsR[t]
}

// Columns returns the tidset of every item of view v (bit t set iff item
// occurs in transaction t). Built once on first use and cached; the
// returned sets must not be modified.
func (d *Dataset) Columns(v View) []*bitset.Set {
	d.colsOnce[v].Do(func() {
		built, supps := make([]*bitset.Set, d.Items(v)), make([]int, d.Items(v))
		for i := range built {
			built[i] = bitset.New(d.Size())
		}
		for t := 0; t < d.Size(); t++ {
			d.Row(v, t).ForEach(func(i int) bool {
				built[i].Add(t)
				supps[i]++
				return true
			})
		}
		d.cols[v], d.supps[v] = built, supps
	})
	return d.cols[v]
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
	c := MustNew(d.namesL, d.namesR)
	c.rowsL = make([]*bitset.Set, len(d.rowsL))
	c.rowsR = make([]*bitset.Set, len(d.rowsR))
	for t := range d.rowsL {
		c.rowsL[t] = d.rowsL[t].Clone()
		c.rowsR[t] = d.rowsR[t].Clone()
	}
	return c
}

// Subset returns a new dataset containing only the transactions whose
// indices are listed (in the given order). Used by holdout evaluation.
func (d *Dataset) Subset(tids []int) (*Dataset, error) {
	c := MustNew(d.namesL, d.namesR)
	for _, t := range tids {
		if t < 0 || t >= d.Size() {
			return nil, fmt.Errorf("dataset: transaction %d out of range [0,%d)", t, d.Size())
		}
		c.rowsL = append(c.rowsL, d.rowsL[t].Clone())
		c.rowsR = append(c.rowsR, d.rowsR[t].Clone())
	}
	return c, nil
}
