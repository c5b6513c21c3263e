// Package multiview implements the paper's future-work direction (§7):
// association discovery in data with more than two views. A k-view
// dataset is decomposed into its k·(k-1)/2 unordered view pairs; each
// pair is mined as a standard two-view problem, and the resulting matrix
// of compression ratios summarizes which views share structure. This
// keeps the paper's models and score untouched — the decomposition is the
// natural first-order generalization: a pairwise L% close to 100 means
// two views are (nearly) independent, exactly as in the two-view setting.
package multiview

import (
	"context"
	"fmt"

	"twoview/internal/core"
	"twoview/internal/dataset"
)

// Dataset is a Boolean dataset with k ≥ 2 views over disjoint item
// vocabularies.
type Dataset struct {
	viewNames []string
	itemNames [][]string
	rows      [][][]int // rows[t][v] = sorted item ids of view v
}

// New creates an empty multi-view dataset. viewNames names the views
// (must be unique); itemNames gives each view's vocabulary.
func New(viewNames []string, itemNames [][]string) (*Dataset, error) {
	if len(viewNames) < 2 {
		return nil, fmt.Errorf("multiview: need at least 2 views, have %d", len(viewNames))
	}
	if len(viewNames) != len(itemNames) {
		return nil, fmt.Errorf("multiview: %d view names but %d vocabularies",
			len(viewNames), len(itemNames))
	}
	seen := map[string]bool{}
	for _, n := range viewNames {
		if n == "" || seen[n] {
			return nil, fmt.Errorf("multiview: empty or duplicate view name %q", n)
		}
		seen[n] = true
	}
	return &Dataset{
		viewNames: append([]string(nil), viewNames...),
		itemNames: itemNames,
	}, nil
}

// Views returns the number of views.
func (d *Dataset) Views() int { return len(d.viewNames) }

// ViewName returns the name of view v.
func (d *Dataset) ViewName(v int) string { return d.viewNames[v] }

// Size returns the number of transactions.
func (d *Dataset) Size() int { return len(d.rows) }

// AddRow appends one transaction: one itemset per view.
func (d *Dataset) AddRow(itemsPerView [][]int) error {
	if len(itemsPerView) != d.Views() {
		return fmt.Errorf("multiview: row has %d views, want %d", len(itemsPerView), d.Views())
	}
	row := make([][]int, d.Views())
	for v, items := range itemsPerView {
		for _, i := range items {
			if i < 0 || i >= len(d.itemNames[v]) {
				return fmt.Errorf("multiview: view %d item %d out of range [0,%d)",
					v, i, len(d.itemNames[v]))
			}
		}
		row[v] = append([]int(nil), items...)
	}
	d.rows = append(d.rows, row)
	return nil
}

// Pair projects the dataset onto views (i, j), producing a standard
// two-view dataset with view i on the left and view j on the right.
func (d *Dataset) Pair(i, j int) (*dataset.Dataset, error) {
	if i == j || i < 0 || j < 0 || i >= d.Views() || j >= d.Views() {
		return nil, fmt.Errorf("multiview: invalid view pair (%d, %d)", i, j)
	}
	two, err := dataset.New(d.itemNames[i], d.itemNames[j])
	if err != nil {
		return nil, err
	}
	for _, row := range d.rows {
		if err := two.AddRow(row[i], row[j]); err != nil {
			return nil, err
		}
	}
	return two, nil
}

// PairResult is the mining outcome for one view pair.
type PairResult struct {
	I, J   int
	Data   *dataset.Dataset
	Result *core.Result
}

// Options configures MineAllPairs.
type Options struct {
	// MinSupport is the candidate support threshold per pair; < 1 means 1.
	MinSupport int
	// K is the SELECT parameter; < 1 means 1.
	K int
	// MaxCandidates guards against pattern explosion per pair
	// (0 = unbounded).
	MaxCandidates int
	// ParallelOptions sets the worker-pool size used for candidate
	// mining and SELECT within each pair; results are identical for any
	// value.
	core.ParallelOptions
}

// MineAllPairs mines a translation table for every unordered view pair
// with TRANSLATOR-SELECT(k), in deterministic (i < j) order. Cancelling
// ctx aborts the batch at the next checkpoint (between pairs, or at any
// cancellation checkpoint inside the per-pair candidate mine and SELECT
// run) and returns ctx.Err(); the pairs mined so far are discarded.
func MineAllPairs(ctx context.Context, d *Dataset, opt Options) ([]PairResult, error) {
	if opt.K < 1 {
		opt.K = 1
	}
	if opt.MinSupport < 1 {
		opt.MinSupport = 1
	}
	var out []PairResult
	for i := 0; i < d.Views(); i++ {
		for j := i + 1; j < d.Views(); j++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			two, err := d.Pair(i, j)
			if err != nil {
				return nil, err
			}
			cands, err := core.MineCandidates(ctx, two, opt.MinSupport, opt.MaxCandidates, opt.ParallelOptions)
			if err != nil {
				if ctx.Err() != nil {
					return nil, ctx.Err()
				}
				return nil, fmt.Errorf("multiview: pair (%s, %s): %w",
					d.ViewName(i), d.ViewName(j), err)
			}
			res, err := core.MineSelect(ctx, two, cands, core.SelectOptions{K: opt.K, ParallelOptions: opt.ParallelOptions})
			if err != nil {
				return nil, err
			}
			out = append(out, PairResult{I: i, J: j, Data: two, Result: res})
		}
	}
	return out, nil
}

// StructureMatrix returns the symmetric k×k matrix of pairwise
// compression ratios L% (diagonal = 0). Entries close to 100 indicate
// independent view pairs; low entries indicate shared structure.
func StructureMatrix(d *Dataset, results []PairResult) [][]float64 {
	k := d.Views()
	m := make([][]float64, k)
	for i := range m {
		m[i] = make([]float64, k)
	}
	for _, pr := range results {
		l, _ := pr.Result.Totals.Ratios(pr.Data, pr.Result.Table)
		m[pr.I][pr.J] = l
		m[pr.J][pr.I] = l
	}
	return m
}
