// Package mdl implements the encoded-length computations of §4.1 of the
// paper. Every item I of a view V gets a Shannon-optimal code of length
// L(I|D_V) = -log2 P(I|D_V) where P is the item's empirical probability of
// occurring in the data. Itemsets, translation rules, translation tables
// and correction tables are encoded by summing item code lengths; the
// direction of a rule costs 1 bit (bidirectional) or 2 bits (one bit for
// "unidirectional" plus one for which direction).
//
// The three framework components that §4.1 proves to be additive constants
// (the item code table itself, correction-row framing, and table framing)
// are deliberately excluded from all lengths.
package mdl

import (
	"math"

	"twoview/internal/dataset"
	"twoview/internal/itemset"
)

// Coder holds the per-item code lengths of both views of a dataset and the
// dataset size. It is immutable after construction.
type Coder struct {
	lenL, lenR []float64
	size       int
}

// NewCoder computes item code lengths from the empirical item frequencies
// of d. Items that never occur get +Inf length: they can never appear in a
// rule or correction produced from valid data, and any attempt to encode
// them surfaces as an infinite score rather than a silent error.
func NewCoder(d *dataset.Dataset) *Coder {
	c := &Coder{size: d.Size()}
	c.lenL = itemLengths(d, dataset.Left)
	c.lenR = itemLengths(d, dataset.Right)
	return c
}

func itemLengths(d *dataset.Dataset, v dataset.View) []float64 {
	n := d.Items(v)
	out := make([]float64, n)
	total := float64(d.Size())
	for i := 0; i < n; i++ {
		supp := d.ItemSupport(v, i)
		if supp == 0 || d.Size() == 0 {
			out[i] = math.Inf(1)
			continue
		}
		// -log2(supp/|D|); exactly 0 for items occurring everywhere.
		out[i] = -math.Log2(float64(supp) / total)
	}
	return out
}

// Size returns |D| used to compute the empirical probabilities.
func (c *Coder) Size() int { return c.size }

// ItemLen returns L(I|D_v) for item i of view v in bits.
func (c *Coder) ItemLen(v dataset.View, i int) float64 {
	return c.lengths(v)[i]
}

func (c *Coder) lengths(v dataset.View) []float64 {
	if v == dataset.Left {
		return c.lenL
	}
	return c.lenR
}

// SetLen returns L(X|D_v) = Σ_{I∈X} L(I|D_v) in bits.
func (c *Coder) SetLen(v dataset.View, x itemset.Itemset) float64 {
	lens := c.lengths(v)
	total := 0.0
	for _, i := range x {
		total += lens[i]
	}
	return total
}

// DirLen returns L(◇): 1 bit for bidirectional rules, 2 bits otherwise.
func DirLen(bidirectional bool) float64 {
	if bidirectional {
		return 1
	}
	return 2
}

// RuleLen returns L(X ◇ Y) = L(X|D_L) + L(◇) + L(Y|D_R).
func (c *Coder) RuleLen(x, y itemset.Itemset, bidirectional bool) float64 {
	return c.SetLen(dataset.Left, x) + DirLen(bidirectional) + c.SetLen(dataset.Right, y)
}

// DataLen returns the baseline encoded length of one full view: the cost of
// the correction table when the translation table is empty (then C = D_v):
// Σ supp(i)·L(i) over the items that occur (0·Inf would be NaN).
func (c *Coder) DataLen(d *dataset.Dataset, v dataset.View) float64 {
	lens := c.lengths(v)
	total := 0.0
	for i := range lens {
		if supp := d.ItemSupport(v, i); supp > 0 {
			total += float64(supp) * lens[i]
		}
	}
	return total
}

// BaselineLen returns L(D,∅) = L(D_L→R|∅) + L(D_L←R|∅), the uncompressed
// size of the bidirectional translation reported in Table 1.
func (c *Coder) BaselineLen(d *dataset.Dataset) float64 {
	return c.DataLen(d, dataset.Left) + c.DataLen(d, dataset.Right)
}
