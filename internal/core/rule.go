// Package core implements the paper's primary contribution: translation
// rules and translation tables for Boolean two-view data (§3), the
// MDL-based score (§4), the incremental cover state with the exact gain
// computation and its bounds (§5.1), and the three TRANSLATOR search
// algorithms — EXACT (§5.2), SELECT(k) (§5.3) and GREEDY (§5.4).
package core

import (
	"fmt"

	"twoview/internal/dataset"
	"twoview/internal/itemset"
	"twoview/internal/mdl"
)

// Direction is the second column of a translation rule: →, ← or ↔.
type Direction int

const (
	// Forward is X → Y: X in the left view implies Y in the right view.
	Forward Direction = iota
	// Backward is X ← Y: Y in the right view implies X in the left view.
	Backward
	// Both is X ↔ Y: the rule applies in both directions.
	Both
)

// Directions lists all three directions in canonical order.
var Directions = [3]Direction{Forward, Backward, Both}

// String implements fmt.Stringer.
func (d Direction) String() string {
	switch d {
	case Forward:
		return "->"
	case Backward:
		return "<-"
	case Both:
		return "<->"
	}
	return fmt.Sprintf("Direction(%d)", int(d))
}

// Bidirectional reports whether d is ↔.
func (d Direction) Bidirectional() bool { return d == Both }

// Rule is a translation rule X ◇ Y with X ⊆ I_L and Y ⊆ I_R, both
// non-empty (Definition 1).
type Rule struct {
	X   itemset.Itemset // over I_L
	Dir Direction
	Y   itemset.Itemset // over I_R
}

// Validate checks Definition 1 against a dataset's vocabularies.
func (r Rule) Validate(d *dataset.Dataset) error {
	if r.X.Empty() || r.Y.Empty() {
		return fmt.Errorf("core: rule %v has an empty side", r)
	}
	if !r.X.IsCanonical() || !r.Y.IsCanonical() {
		return fmt.Errorf("core: rule %v has non-canonical itemsets", r)
	}
	if r.X[len(r.X)-1] >= d.Items(dataset.Left) || r.X[0] < 0 {
		return fmt.Errorf("core: rule %v: X outside I_L", r)
	}
	if r.Y[len(r.Y)-1] >= d.Items(dataset.Right) || r.Y[0] < 0 {
		return fmt.Errorf("core: rule %v: Y outside I_R", r)
	}
	if r.Dir != Forward && r.Dir != Backward && r.Dir != Both {
		return fmt.Errorf("core: rule %v: invalid direction", r)
	}
	return nil
}

// AppliesTo reports whether the rule fires when translating from view
// `from`: → and ↔ fire from the left, ← and ↔ from the right.
func (r Rule) AppliesTo(from dataset.View) bool {
	if from == dataset.Left {
		return r.Dir == Forward || r.Dir == Both
	}
	return r.Dir == Backward || r.Dir == Both
}

// Antecedent returns the side of the rule matched against view `from`.
func (r Rule) Antecedent(from dataset.View) itemset.Itemset {
	if from == dataset.Left {
		return r.X
	}
	return r.Y
}

// Consequent returns the side of the rule added to the opposite view.
func (r Rule) Consequent(from dataset.View) itemset.Itemset {
	if from == dataset.Left {
		return r.Y
	}
	return r.X
}

// Len returns L(X ◇ Y) in bits under the given coder (§4.1).
func (r Rule) Len(c *mdl.Coder) float64 {
	return c.RuleLen(r.X, r.Y, r.Dir.Bidirectional())
}

// Compare provides the deterministic total order used for tie-breaking:
// by X, then Y (length-lexicographic), then direction.
func (r Rule) Compare(o Rule) int {
	if c := itemset.Compare(r.X, o.X); c != 0 {
		return c
	}
	if c := itemset.Compare(r.Y, o.Y); c != 0 {
		return c
	}
	return int(r.Dir) - int(o.Dir)
}

// String renders the rule with item ids.
func (r Rule) String() string {
	return fmt.Sprintf("%v %v %v", r.X, r.Dir, r.Y)
}

// Format renders the rule with item names from the dataset.
func (r Rule) Format(d *dataset.Dataset) string {
	return fmt.Sprintf("{%s} %v {%s}",
		r.X.Format(d.Names(dataset.Left)), r.Dir, r.Y.Format(d.Names(dataset.Right)))
}

// Table is a translation table: an (unordered) collection of translation
// rules (Definition 2). Rule order never influences translation (§3).
type Table struct {
	Rules []Rule
}

// Len returns L(T), the encoded length of the table (§4.1).
func (t *Table) Len(c *mdl.Coder) float64 {
	total := 0.0
	for _, r := range t.Rules {
		total += r.Len(c)
	}
	return total
}

// Size returns |T|, the number of rules.
func (t *Table) Size() int { return len(t.Rules) }

// clipped returns a Table over a capacity-clipped view of t's rules:
// rules appended to t later never show through it, and it does not
// reference t itself.
func (t *Table) clipped() *Table {
	n := len(t.Rules)
	return &Table{Rules: t.Rules[:n:n]}
}

// AvgRuleItems returns the average number of items per rule (|X|+|Y|),
// the "l" column of Table 3.
func (t *Table) AvgRuleItems() float64 {
	if len(t.Rules) == 0 {
		return 0
	}
	total := 0
	for _, r := range t.Rules {
		total += len(r.X) + len(r.Y)
	}
	return float64(total) / float64(len(t.Rules))
}

// Clone returns a deep copy of the table.
func (t *Table) Clone() *Table {
	c := &Table{Rules: make([]Rule, len(t.Rules))}
	for i, r := range t.Rules {
		c.Rules[i] = Rule{X: r.X.Clone(), Dir: r.Dir, Y: r.Y.Clone()}
	}
	return c
}

// Validate checks every rule in the table.
func (t *Table) Validate(d *dataset.Dataset) error {
	for i, r := range t.Rules {
		if err := r.Validate(d); err != nil {
			return fmt.Errorf("rule %d: %w", i, err)
		}
	}
	return nil
}
