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
//
// The generated data is pinned across commits: TestGenerateGolden
// checks every profile's dataset bytes and planted rules, at scales 1.0
// and 0.1, against the digests in testdata/golden.json. A faster
// generator must draw the same random numbers in the same order.
package synth

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"sort"

	"twoview/internal/bitset"
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

	rowsL := newBitRows(p.Size, p.ItemsL)
	rowsR := newBitRows(p.Size, p.ItemsR)

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
	var left, right []int
	for t := 0; t < p.Size; t++ {
		left, right = rowsL.appendItems(left[:0], t), rowsR.appendItems(right[:0], t)
		if err := d.AddRow(left, right); err != nil {
			return nil, nil, err
		}
	}
	return d, rules, nil
}

// bitRows is one view's rows as a row-major bit matrix: row t is the
// stride words from t·stride, and item i its bit i.
type bitRows struct {
	words         []uint64
	stride, items int
}

func newBitRows(rows, items int) bitRows {
	stride := (items + bitset.WordBits - 1) / bitset.WordBits
	return bitRows{words: make([]uint64, rows*stride), stride: stride, items: items}
}

// row returns the words of row t.
func (m bitRows) row(t int) []uint64 { return m.words[t*m.stride : (t+1)*m.stride] }

// appendItems appends the items of row t to dst, in increasing order.
func (m bitRows) appendItems(dst []int, t int) []int {
	for k, w := range m.row(t) {
		for w != 0 {
			dst = append(dst, k*bitset.WordBits+bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
	return dst
}

// perm returns rand.Perm(n), drawn from r call for call as Perm does,
// in buf's storage when it is large enough.
func perm(r *rand.Rand, buf []int, n int) []int {
	if cap(buf) < n {
		buf = make([]int, n)
	}
	m := buf[:n]
	for i := range m {
		j := r.Intn(i + 1)
		m[i] = m[j]
		m[j] = i
	}
	return m
}

// plantRules embeds the cross-view associations and returns the ground
// truth. Itemsets of different rules may overlap, mirroring real data.
// Per-rule coverage is capped so that the planted structure consumes at
// most ~60% of each view's density budget, leaving room for background
// noise and keeping the final density on target.
func plantRules(p Profile, r *rand.Rand, rowsL, rowsR bitRows) []core.Rule {
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
	// The supports of all rules are drawn into one buffer: each is done
	// with before the next is drawn.
	var buf []int
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
		buf = perm(r, buf, p.Size)
		support := buf[:maxInt(1, int(cov*float64(p.Size)))]
		if bidir {
			for _, t := range support {
				setBits(r, rowsL.row(t), x, p.Dropout)
				setBits(r, rowsR.row(t), y, p.Dropout)
			}
			rules = append(rules, core.Rule{X: x, Dir: core.Both, Y: y})
		} else {
			for _, t := range support {
				setBits(r, rowsL.row(t), x, p.Dropout)
				if r.Float64() < p.Confidence {
					setBits(r, rowsR.row(t), y, p.Dropout)
				}
			}
			// Y also fires alone on extra rows, so Y ⇒ X does not hold
			// and the association stays unidirectional.
			buf = perm(r, buf, p.Size)
			for _, t := range buf[:maxInt(1, len(support)/2)] {
				setBits(r, rowsR.row(t), y, p.Dropout)
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
	ids := r.Perm(n)[:k]
	sort.Ints(ids)
	return itemset.Itemset(ids)
}

func setBits(r *rand.Rand, row []uint64, items itemset.Itemset, dropout float64) {
	for _, i := range items {
		if r.Float64() >= dropout {
			row[i/bitset.WordBits] |= 1 << uint(i%bitset.WordBits)
		}
	}
}

// fillBackground adds independent per-item noise with Zipf-skewed
// marginals, calibrated so the final expected density hits the target.
func fillBackground(r *rand.Rand, rows bitRows, target, skew float64) {
	n, m := len(rows.words)/rows.stride, rows.items
	planted := 0
	for _, w := range rows.words {
		planted += bits.OnesCount64(w)
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
	for t := 0; t < n; t++ {
		row := rows.row(t)
		for i, p := range probs {
			k, bit := i/bitset.WordBits, uint64(1)<<uint(i%bitset.WordBits)
			if row[k]&bit == 0 && r.Float64() < p {
				row[k] |= bit
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
