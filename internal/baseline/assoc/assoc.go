// Package assoc implements the classic cross-view association rule mining
// baseline of §6.3: all rules X → Y with X ⊆ I_L, Y ⊆ I_R (and the reverse
// direction) whose support and confidence clear the given thresholds,
// mined by an adapted miner that only produces rules spanning the two
// views. The paper uses it to demonstrate the pattern explosion: orders of
// magnitude more rules than TRANSLATOR selects.
package assoc

import (
	"context"
	"sort"

	"twoview/internal/core"
	"twoview/internal/dataset"
	"twoview/internal/itemset"
	"twoview/internal/mine/eclat"
)

// Rule is an association rule across the views with its quality measures.
type Rule struct {
	X, Y itemset.Itemset
	Dir  core.Direction
	// Supp is |supp(X ∪ Y)|.
	Supp int
	// Conf is the confidence of the rule in its direction; for
	// bidirectional rules it is the maximum confidence c+ (§6).
	Conf float64
}

// Options holds the thresholds of the miner.
type Options struct {
	// MinSupport is the minimal absolute joint support.
	MinSupport int
	// MinConfidence is the minimal confidence in at least one direction.
	MinConfidence float64
}

// Mine returns all cross-view association rules clearing the thresholds.
// A pair (X, Y) passing in both directions yields one bidirectional rule
// carrying c+; otherwise one unidirectional rule per passing direction.
func Mine(d *dataset.Dataset, opt Options) ([]Rule, error) {
	fis, err := eclat.Mine(context.Background(), d, eclat.Options{
		MinSupport: opt.MinSupport,
		TwoView:    true,
	})
	if err != nil {
		return nil, err
	}
	nL := d.Items(dataset.Left)
	var out []Rule
	for _, fi := range fis {
		x, y := eclat.Split(fi.Items, nL)
		suppX := d.Support(dataset.Left, x)
		suppY := d.Support(dataset.Right, y)
		confF := float64(fi.Supp) / float64(suppX)
		confB := float64(fi.Supp) / float64(suppY)
		okF := confF >= opt.MinConfidence
		okB := confB >= opt.MinConfidence
		switch {
		case okF && okB:
			out = append(out, Rule{X: x, Y: y, Dir: core.Both, Supp: fi.Supp, Conf: max(confF, confB)})
		case okF:
			out = append(out, Rule{X: x, Y: y, Dir: core.Forward, Supp: fi.Supp, Conf: confF})
		case okB:
			out = append(out, Rule{X: x, Y: y, Dir: core.Backward, Supp: fi.Supp, Conf: confB})
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Conf != out[b].Conf {
			return out[a].Conf > out[b].Conf
		}
		if out[a].Supp != out[b].Supp {
			return out[a].Supp > out[b].Supp
		}
		return ruleOf(out[a]).Compare(ruleOf(out[b])) < 0
	})
	return out, nil
}

// Count returns the number of rules Mine would produce, without keeping
// them; it is used to report the pattern explosion sizes of §6.3.
func Count(d *dataset.Dataset, opt Options) (int, error) {
	fis, err := eclat.Mine(context.Background(), d, eclat.Options{MinSupport: opt.MinSupport, TwoView: true})
	if err != nil {
		return 0, err
	}
	nL := d.Items(dataset.Left)
	n := 0
	for _, fi := range fis {
		x, y := eclat.Split(fi.Items, nL)
		if float64(fi.Supp)/float64(d.Support(dataset.Left, x)) >= opt.MinConfidence ||
			float64(fi.Supp)/float64(d.Support(dataset.Right, y)) >= opt.MinConfidence {
			n++
		}
	}
	return n, nil
}

func ruleOf(r Rule) core.Rule { return core.Rule{X: r.X, Dir: r.Dir, Y: r.Y} }
