// Package eval implements the evaluation harness of §6: the metrics used
// throughout the paper's tables (|T|, average rule length, |C|%, average
// maximum confidence c+, compression ratio L%), the renderers that
// regenerate every table and figure, and the DOT bipartite visualizations
// of Fig. 3.
package eval

import (
	"time"

	"twoview/internal/core"
	"twoview/internal/dataset"
	"twoview/internal/mdl"
)

// Metrics are the evaluation criteria of §6 for one rule set on one
// dataset.
type Metrics struct {
	NumRules int     // |T|
	AvgLen   float64 // average items per rule ("l" in Table 3)
	CorrPct  float64 // |C|% under the translation encoding
	AvgConf  float64 // average c+ over the rule set
	LPct     float64 // compression ratio L%
	Runtime  time.Duration
}

// MaxConfidence returns c+(X ◇ Y) = max{c(X→Y), c(X←Y)} on the dataset,
// the direction-agnostic confidence of §6 ("to avoid penalizing methods
// that induce bidirectional rules").
func MaxConfidence(d *dataset.Dataset, r core.Rule) float64 {
	joint := d.JointSupportSet(r.X, r.Y).Count()
	if joint == 0 {
		return 0
	}
	best := 0.0
	if s := d.Support(dataset.Left, r.X); s > 0 {
		best = float64(joint) / float64(s)
	}
	if s := d.Support(dataset.Right, r.Y); s > 0 {
		if c := float64(joint) / float64(s); c > best {
			best = c
		}
	}
	return best
}

// Evaluate scores an arbitrary translation table on d under the paper's
// encoding and computes all Table 3 metrics. The runtime field is left
// zero; callers measure mining time themselves.
func Evaluate(d *dataset.Dataset, coder *mdl.Coder, t *core.Table) Metrics {
	return metrics(d, t, core.EvaluateTable(d, coder, t))
}

// FromResult computes metrics for a TRANSLATOR result from its table
// and the cover totals it ends with, without replaying the table. They
// equal Evaluate's on the result's table bit for bit, with the run's
// runtime.
func FromResult(d *dataset.Dataset, res *core.Result) Metrics {
	m := metrics(d, res.Table, res.Totals)
	m.Runtime = res.Runtime
	return m
}

// metrics computes the Table 3 metrics of table t on d, given the cover
// totals t leaves on d.
func metrics(d *dataset.Dataset, t *core.Table, totals *core.CoverTotals) Metrics {
	m := Metrics{NumRules: t.Size(), AvgLen: t.AvgRuleItems()}
	m.LPct, m.CorrPct = totals.Ratios(d, t)
	if t.Size() > 0 {
		total := 0.0
		for _, r := range t.Rules {
			total += MaxConfidence(d, r)
		}
		m.AvgConf = total / float64(t.Size())
	}
	return m
}

// RuleStats carries the presentation measures for one rule (Figs. 4–7).
type RuleStats struct {
	Rule core.Rule
	Supp int
	Conf float64 // c+
}

// TopRules returns the first n rules of a table with their stats,
// formatted in mining order (TRANSLATOR adds most-compressing rules
// first, so table order is the paper's "top rules" order).
func TopRules(d *dataset.Dataset, t *core.Table, n int) []RuleStats {
	if n > t.Size() {
		n = t.Size()
	}
	out := make([]RuleStats, 0, n)
	for _, r := range t.Rules[:n] {
		out = append(out, RuleStats{
			Rule: r,
			Supp: d.JointSupportSet(r.X, r.Y).Count(),
			Conf: MaxConfidence(d, r),
		})
	}
	return out
}

// RulesWithItem returns every rule of t containing the given item of the
// given view, preserving table order (Fig. 6 focuses on one item).
func RulesWithItem(t *core.Table, v dataset.View, item int) []core.Rule {
	var out []core.Rule
	for _, r := range t.Rules {
		side := r.X
		if v == dataset.Right {
			side = r.Y
		}
		if side.Contains(item) {
			out = append(out, r)
		}
	}
	return out
}
