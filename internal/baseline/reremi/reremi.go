// Package reremi implements the redescription mining baseline of §6.3 in
// the spirit of the REREMI algorithm (Galbrun & Miettinen, 2012),
// restricted — as in the paper's experiments — to monotone conjunctions:
// a redescription is a pair of itemsets (X over I_L, Y over I_R) whose
// support sets are nearly identical, quality being the Jaccard coefficient
// of the two supports. Mining proceeds from the best singleton pairs by
// alternating greedy extension driven purely by accuracy, mirroring
// REREMI's "ad-hoc pruning, driven primarily by accuracy". Every accepted
// redescription is a bidirectional rule; the set is typically redundant
// and covers only part of the two-view structure, which is exactly the
// behaviour Table 3 contrasts with TRANSLATOR.
package reremi

import (
	"sort"

	"twoview/internal/bitset"
	"twoview/internal/core"
	"twoview/internal/dataset"
	"twoview/internal/itemset"
)

// Redescription is a pair of monotone conjunctive queries with its
// accuracy.
type Redescription struct {
	X, Y itemset.Itemset
	// Supp is |supp(X) ∩ supp(Y)|.
	Supp int
	// Jaccard is |supp(X) ∩ supp(Y)| / |supp(X) ∪ supp(Y)|.
	Jaccard float64
}

// Options configures Mine.
type Options struct {
	// MinJaccard is the acceptance threshold; 0 means 0.2.
	MinJaccard float64
	// MinSupport is the minimal joint support; values < 1 mean 1.
	MinSupport int
	// MaxItems bounds the query length per side; 0 means 4.
	MaxItems int
	// InitialPairs is the number of singleton pairs seeding the greedy
	// extension; 0 means 100.
	InitialPairs int
	// MaxRules caps the output; 0 means 100.
	MaxRules int
}

func (o Options) withDefaults() Options {
	if o.MinJaccard == 0 {
		o.MinJaccard = 0.2
	}
	if o.MinSupport < 1 {
		o.MinSupport = 1
	}
	if o.MaxItems == 0 {
		o.MaxItems = 4
	}
	if o.InitialPairs == 0 {
		o.InitialPairs = 100
	}
	if o.MaxRules == 0 {
		o.MaxRules = 100
	}
	return o
}

// Mine returns the redescriptions found by alternating greedy extension
// from the best singleton pairs, deduplicated and sorted by decreasing
// accuracy.
func Mine(d *dataset.Dataset, opt Options) []Redescription {
	opt = opt.withDefaults()
	type seed struct {
		i, j int
		jac  float64
	}
	colsL, colsR := d.Columns(dataset.Left), d.Columns(dataset.Right)
	var seeds []seed
	for i := range colsL {
		if colsL[i].Empty() {
			continue
		}
		for j := range colsR {
			if colsR[j].Empty() {
				continue
			}
			inter := bitset.AndCount(colsL[i], colsR[j])
			if inter < opt.MinSupport {
				continue
			}
			union := colsL[i].Count() + colsR[j].Count() - inter
			seeds = append(seeds, seed{i, j, float64(inter) / float64(union)})
		}
	}
	sort.Slice(seeds, func(a, b int) bool {
		if seeds[a].jac != seeds[b].jac {
			return seeds[a].jac > seeds[b].jac
		}
		if seeds[a].i != seeds[b].i {
			return seeds[a].i < seeds[b].i
		}
		return seeds[a].j < seeds[b].j
	})
	if len(seeds) > opt.InitialPairs {
		seeds = seeds[:opt.InitialPairs]
	}

	seen := map[string]bool{}
	var out []Redescription
	for _, sd := range seeds {
		rd := extend(d, itemset.New(sd.i), itemset.New(sd.j), opt)
		if rd == nil {
			continue
		}
		key := rd.X.String() + "|" + rd.Y.String()
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, *rd)
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Jaccard != out[b].Jaccard {
			return out[a].Jaccard > out[b].Jaccard
		}
		if c := itemset.Compare(out[a].X, out[b].X); c != 0 {
			return c < 0
		}
		return itemset.Compare(out[a].Y, out[b].Y) < 0
	})
	if len(out) > opt.MaxRules {
		out = out[:opt.MaxRules]
	}
	return out
}

// extend alternately grows X and Y by the single item that maximizes the
// Jaccard coefficient, as long as it improves, then applies the
// acceptance thresholds.
func extend(d *dataset.Dataset, x, y itemset.Itemset, opt Options) *Redescription {
	suppX := d.SupportSet(dataset.Left, x)
	suppY := d.SupportSet(dataset.Right, y)
	cur := jaccard(suppX, suppY)
	for {
		improved := false
		if len(x) < opt.MaxItems {
			if item, jac := bestExtension(d, dataset.Left, x, suppX, suppY, opt.MinSupport); item >= 0 && jac > cur {
				x = x.Union(itemset.New(item))
				suppX.And(d.Columns(dataset.Left)[item])
				cur = jac
				improved = true
			}
		}
		if len(y) < opt.MaxItems {
			if item, jac := bestExtension(d, dataset.Right, y, suppY, suppX, opt.MinSupport); item >= 0 && jac > cur {
				y = y.Union(itemset.New(item))
				suppY.And(d.Columns(dataset.Right)[item])
				cur = jac
				improved = true
			}
		}
		if !improved {
			break
		}
	}
	inter := bitset.AndCount(suppX, suppY)
	if cur < opt.MinJaccard || inter < opt.MinSupport {
		return nil
	}
	return &Redescription{X: x, Y: y, Supp: inter, Jaccard: cur}
}

// bestExtension returns the item of view v (not yet in q) whose addition
// to the query maximizes Jaccard against the other side's support, with a
// deterministic tie-break. It returns -1 when no extension keeps the
// joint support above minSupp.
func bestExtension(d *dataset.Dataset, v dataset.View, q itemset.Itemset, suppQ, suppOther *bitset.Set, minSupp int) (int, float64) {
	cols := d.Columns(v)
	bestItem, bestJac := -1, -1.0
	probe := bitset.New(d.Size())
	for i := range cols {
		if q.Contains(i) {
			continue
		}
		bitset.IntersectInto(probe, suppQ, cols[i])
		inter := bitset.AndCount(probe, suppOther)
		if inter < minSupp {
			continue
		}
		union := probe.Count() + suppOther.Count() - inter
		jac := float64(inter) / float64(union)
		if jac > bestJac {
			bestItem, bestJac = i, jac
		}
	}
	return bestItem, bestJac
}

func jaccard(a, b *bitset.Set) float64 {
	inter := bitset.AndCount(a, b)
	union := a.Count() + b.Count() - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

// ToTable converts redescriptions into a translation table of
// bidirectional rules for scoring under the paper's encoding.
func ToTable(rds []Redescription) *core.Table {
	t := &core.Table{Rules: make([]core.Rule, len(rds))}
	for i, rd := range rds {
		t.Rules[i] = core.Rule{X: rd.X, Dir: core.Both, Y: rd.Y}
	}
	return t
}
