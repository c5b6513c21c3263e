// Package synth generates synthetic Boolean two-view datasets calibrated
// to the fourteen real-world datasets of the paper's Table 1 (|D|, |I_L|,
// |I_R|, d_L, d_R). The real datasets (LUCS/KDD, UCI, MULAN repositories,
// the European mammal atlas and the 2011 Finnish election engine data)
// are not redistributable inside this offline module; these generators
// are the documented substitution (see README.md, section "Reproducing
// the paper").
//
// Each dataset is a superposition of
//
//   - Zipf-skewed independent background noise per view, calibrated so the
//     overall view density matches the target, and
//   - planted cross-view associations: bidirectional rules (X and Y firing
//     together on a random row subset) and unidirectional rules (X implies
//     Y with high confidence, while Y also occurs alone so the converse
//     does not hold), both subject to per-bit dropout noise.
//
// The planted rules are returned as ground truth, enabling the recovery
// experiments that real data cannot support.
package synth

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"twoview/internal/core"
	"twoview/internal/dataset"
	"twoview/internal/itemset"
)

// Profile describes one dataset to generate.
type Profile struct {
	Name           string
	Size           int // |D|
	ItemsL, ItemsR int
	DensityL       float64
	DensityR       float64

	// BidirRules and UniRules are the numbers of planted associations.
	BidirRules, UniRules int
	// RuleItemsMin/Max bound the itemset size per side of planted rules.
	RuleItemsMin, RuleItemsMax int
	// CoverageMin/Max bound the fraction of rows supporting each rule.
	CoverageMin, CoverageMax float64
	// Dropout is the probability that a planted bit is omitted.
	Dropout float64
	// Confidence is the forward confidence of unidirectional rules.
	Confidence float64
	// Seed makes generation reproducible.
	Seed int64

	// MinSupport is the suggested candidate threshold for SELECT/GREEDY
	// on this dataset (Table 2 uses 1 for the small datasets and
	// dataset-specific values for the large ones).
	MinSupport int
	// Small marks datasets of Table 2's top half, where exhaustive
	// TRANSLATOR-EXACT is feasible.
	Small bool

	// ZipfSkew shapes the background item marginals; 0 means 1.1.
	ZipfSkew float64
}

// Scaled returns a copy of p with the number of transactions (and the
// suggested support threshold) scaled by f, for fast tests and benchmarks.
func (p Profile) Scaled(f float64) Profile {
	q := p
	q.Size = maxInt(10, int(float64(p.Size)*f))
	if p.MinSupport > 1 {
		q.MinSupport = maxInt(1, int(float64(p.MinSupport)*f))
	}
	return q
}

func (p Profile) withDefaults() Profile {
	if p.RuleItemsMax == 0 {
		p.RuleItemsMin, p.RuleItemsMax = 2, 3
	}
	if p.CoverageMax == 0 {
		p.CoverageMin, p.CoverageMax = 0.08, 0.25
	}
	if p.Dropout == 0 {
		p.Dropout = 0.05
	}
	if p.Confidence == 0 {
		p.Confidence = 0.9
	}
	if p.ZipfSkew == 0 {
		p.ZipfSkew = 1.1
	}
	if p.MinSupport < 1 {
		p.MinSupport = 1
	}
	return p
}

// Generate builds the dataset of a profile together with its planted
// ground-truth rules. Generation is deterministic for a given profile.
func Generate(p Profile) (*dataset.Dataset, []core.Rule, error) {
	p = p.withDefaults()
	if p.Size <= 0 || p.ItemsL <= 0 || p.ItemsR <= 0 {
		return nil, nil, fmt.Errorf("synth: profile %q has empty dimensions", p.Name)
	}
	if p.RuleItemsMax > p.ItemsL || p.RuleItemsMax > p.ItemsR {
		return nil, nil, fmt.Errorf("synth: profile %q rules larger than vocabulary", p.Name)
	}
	r := rand.New(rand.NewSource(p.Seed))

	rowsL := newMatrix(p.Size, p.ItemsL)
	rowsR := newMatrix(p.Size, p.ItemsR)

	rules := plantRules(p, r, rowsL, rowsR)

	// Calibrate background so the final density matches the target:
	// measure the planted contribution, then fill the remainder with
	// Zipf-skewed independent noise.
	fillBackground(r, rowsL, p.DensityL, p.ZipfSkew)
	fillBackground(r, rowsR, p.DensityR, p.ZipfSkew)

	d, err := dataset.New(dataset.GenericNames("L", p.ItemsL), dataset.GenericNames("R", p.ItemsR))
	if err != nil {
		return nil, nil, err
	}
	for t := 0; t < p.Size; t++ {
		if err := d.AddRow(indices(rowsL[t]), indices(rowsR[t])); err != nil {
			return nil, nil, err
		}
	}
	return d, rules, nil
}

func newMatrix(rows, cols int) [][]bool {
	m := make([][]bool, rows)
	for i := range m {
		m[i] = make([]bool, cols)
	}
	return m
}

func indices(row []bool) []int {
	var out []int
	for i, b := range row {
		if b {
			out = append(out, i)
		}
	}
	return out
}

// plantRules embeds the cross-view associations and returns the ground
// truth. Itemsets of different rules may overlap, mirroring real data.
// Per-rule coverage is capped so that the planted structure consumes at
// most ~60% of each view's density budget, leaving room for background
// noise and keeping the final density on target.
func plantRules(p Profile, r *rand.Rand, rowsL, rowsR [][]bool) []core.Rule {
	var rules []core.Rule
	seen := map[string]bool{}
	total := p.BidirRules + p.UniRules
	if total == 0 {
		return rules
	}
	avgItems := float64(p.RuleItemsMin+p.RuleItemsMax) / 2
	// Expected ones per view ≈ total · coverage · |D| · avgItems (the
	// uni-rule consequent-alone rows add ~50% on the right; fold that in).
	capL := 0.6 * p.DensityL * float64(p.ItemsL) / (float64(total) * avgItems)
	capR := 0.6 * p.DensityR * float64(p.ItemsR) / (1.5 * float64(total) * avgItems)
	covCap := math.Min(capL, capR)
	covMin, covMax := p.CoverageMin, p.CoverageMax
	if covMax > covCap {
		covMax = covCap
	}
	if covMin > covMax {
		covMin = covMax / 2
	}
	p.CoverageMin, p.CoverageMax = covMin, covMax
	for len(rules) < total {
		x := randomItemset(r, p.ItemsL, p.RuleItemsMin, p.RuleItemsMax)
		y := randomItemset(r, p.ItemsR, p.RuleItemsMin, p.RuleItemsMax)
		key := x.String() + "|" + y.String()
		if seen[key] {
			continue
		}
		seen[key] = true
		bidir := len(rules) < p.BidirRules
		cov := p.CoverageMin + r.Float64()*(p.CoverageMax-p.CoverageMin)
		support := r.Perm(p.Size)[:maxInt(1, int(cov*float64(p.Size)))]
		if bidir {
			for _, t := range support {
				setBits(r, rowsL[t], x, p.Dropout)
				setBits(r, rowsR[t], y, p.Dropout)
			}
			rules = append(rules, core.Rule{X: x, Dir: core.Both, Y: y})
		} else {
			for _, t := range support {
				setBits(r, rowsL[t], x, p.Dropout)
				if r.Float64() < p.Confidence {
					setBits(r, rowsR[t], y, p.Dropout)
				}
			}
			// Y also fires alone on extra rows, so Y ⇒ X does not hold
			// and the association stays unidirectional.
			extra := r.Perm(p.Size)[:maxInt(1, len(support)/2)]
			for _, t := range extra {
				setBits(r, rowsR[t], y, p.Dropout)
			}
			rules = append(rules, core.Rule{X: x, Dir: core.Forward, Y: y})
		}
	}
	return rules
}

func randomItemset(r *rand.Rand, n, minItems, maxItems int) itemset.Itemset {
	k := minItems
	if maxItems > minItems {
		k += r.Intn(maxItems - minItems + 1)
	}
	if k > n {
		k = n
	}
	perm := r.Perm(n)[:k]
	sort.Ints(perm)
	return itemset.Itemset(perm)
}

func setBits(r *rand.Rand, row []bool, items itemset.Itemset, dropout float64) {
	for _, i := range items {
		if r.Float64() >= dropout {
			row[i] = true
		}
	}
}

// fillBackground adds independent per-item noise with Zipf-skewed
// marginals, calibrated so the final expected density hits the target.
func fillBackground(r *rand.Rand, rows [][]bool, target, skew float64) {
	n, m := len(rows), len(rows[0])
	if n == 0 || m == 0 {
		return
	}
	planted := 0
	for _, row := range rows {
		for _, b := range row {
			if b {
				planted++
			}
		}
	}
	need := target*float64(n*m) - float64(planted)
	if need <= 0 {
		return // planted structure alone already reaches the density
	}
	// Zipf weights over items, shuffled so rule items are not special.
	weights := make([]float64, m)
	sum := 0.0
	for i := range weights {
		weights[i] = 1 / math.Pow(float64(i+2), skew)
		sum += weights[i]
	}
	r.Shuffle(m, func(i, j int) { weights[i], weights[j] = weights[j], weights[i] })
	// Per-item probability, capped at 0.75 (in the spirit of the paper capping item
	// frequency for Elections). Probability mass cut off by the cap is
	// water-filled onto the uncapped items so the density target holds
	// even for strongly skewed, wide vocabularies.
	const cap05 = 0.75
	probs := make([]float64, m)
	remaining := need / float64(n) // expected ones per row
	active := make([]int, m)
	for i := range active {
		active[i] = i
	}
	for len(active) > 0 && remaining > 1e-12 {
		sumW := 0.0
		for _, i := range active {
			sumW += weights[i]
		}
		var capped []int
		var next []int
		for _, i := range active {
			p := remaining * weights[i] / sumW
			if p >= cap05 {
				capped = append(capped, i)
			} else {
				next = append(next, i)
			}
		}
		if len(capped) == 0 {
			for _, i := range active {
				probs[i] = remaining * weights[i] / sumW
			}
			break
		}
		for _, i := range capped {
			probs[i] = cap05
			remaining -= cap05
		}
		active = next
	}
	for _, row := range rows {
		for i := range row {
			if !row[i] && r.Float64() < probs[i] {
				row[i] = true
			}
		}
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
