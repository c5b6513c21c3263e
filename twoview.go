// Package twoview discovers compact, non-redundant sets of association
// rules that describe how the two views (two disjoint attribute sets over
// the same objects) of a Boolean dataset relate — a Go implementation of
//
//	M. van Leeuwen and E. Galbrun,
//	"Association Discovery in Two-View Data",
//	IEEE TKDE 27(12), 2015.
//
// Models are translation tables: sets of unidirectional and bidirectional
// rules X ◇ Y (X over the left view, Y over the right) that translate one
// view into the other. Together with per-transaction correction tables the
// translation is lossless, and the Minimum Description Length principle
// scores tables so that small-but-accurate rule sets win. Three TRANSLATOR
// search algorithms are provided:
//
//   - MineExact — parameter-free; each iteration adds the rule with the
//     globally maximal compression gain, found by branch-and-bound search
//     (feasible on datasets with moderate numbers of items);
//   - MineSelect — iteratively picks the top-k rules from a fixed set of
//     closed frequent two-view itemset candidates (the best practical
//     trade-off; k=1 closely approximates exact search);
//   - MineGreedy — a single KRIMP-style pass over the candidates (fastest).
//
// # Quickstart
//
//	d, _ := twoview.NewDataset([]string{"genre:rock", "tempo:fast"},
//	                           []string{"mood:energetic", "mood:calm"})
//	d.AddRow([]int{0, 1}, []int{0})
//	...
//	ctx := context.Background()
//	cands, _ := twoview.MineCandidates(ctx, d, 1, 0, twoview.ParallelOptions{})
//	res, _ := twoview.MineSelect(ctx, d, cands, twoview.SelectOptions{K: 1})
//	for _, r := range res.Table.Rules {
//	    fmt.Println(r.Format(d))
//	}
//	fmt.Println(twoview.Summarize(d, res).LPct) // compression ratio
//
// # Contexts and cancellation
//
// Every mining entry point takes a context.Context and returns an
// error. Cancelling the context (deadline, signal, caller shutdown)
// aborts the search at the next checkpoint — an iteration or round
// boundary, a worker-phase task boundary, or the periodic probe inside
// a deep search branch — and returns the rules mined so far alongside
// ctx.Err(). A cancelled run leaves its Session reusable. With an
// uncancelled context results are bit-identical for every worker
// count, and the error is nil for the in-memory miners.
//
// # Serving
//
// Mining is the expensive, one-time step; translation is the serving
// step. A Translator compiles a mined (or loaded) table against the
// dataset vocabularies once — item-indexed rule posting lists — and
// then translates id rows, id batches, whole datasets, or unbounded
// streams cheaply and concurrently; Apply is a thin wrapper
// that compiles and applies once. See README.md's "Serving" section.
//
// See the examples/ directory for complete programs, and README.md
// (section "Reproducing the paper") for the experimental reproduction
// of the paper.
package twoview

import (
	"context"
	"io"

	"twoview/internal/core"
	"twoview/internal/dataset"
	"twoview/internal/eval"
	"twoview/internal/mdl"
	"twoview/internal/synth"

	// Arm ParallelOptions.Shards for SELECT and GREEDY: the sharded cover
	// registers itself in an init (core cannot import it — see
	// core.RegisterShardCover).
	_ "twoview/internal/shard"
)

// Core data types, re-exported from the implementation packages. The
// aliases keep one canonical implementation while giving users a single
// import.
type (
	// Dataset is a Boolean two-view dataset.
	Dataset = dataset.Dataset
	// View selects the left or right view of a dataset.
	View = dataset.View
	// Stats summarizes a dataset (sizes and densities).
	Stats = dataset.Stats

	// Rule is a translation rule X ◇ Y.
	Rule = core.Rule
	// Direction is a rule's direction: →, ← or ↔.
	Direction = core.Direction
	// Table is a translation table (a set of rules).
	Table = core.Table
	// Candidate is a candidate rule skeleton for SELECT/GREEDY.
	Candidate = core.Candidate
	// Result is the output of a mining run.
	Result = core.Result
	// IterationStats traces one added rule during mining.
	IterationStats = core.IterationStats
	// IterationFunc is the OnIteration progress hook of the miners'
	// options: it observes each added rule and may stop the run early
	// (cleanly, with a nil error) by returning false.
	IterationFunc = core.IterationFunc

	// ExactOptions configures MineExact.
	ExactOptions = core.ExactOptions
	// SelectOptions configures MineSelect.
	SelectOptions = core.SelectOptions
	// GreedyOptions configures MineGreedy.
	GreedyOptions = core.GreedyOptions
	// ParallelOptions is the worker-pool knob embedded by every miner's
	// options and accepted by candidate mining: Workers = 0 means
	// GOMAXPROCS, 1 means serial. Every parallel path in the library
	// goes through one internal worker-pool abstraction whose contract
	// is that results are bit-identical for any worker count.
	ParallelOptions = core.ParallelOptions
	// Session owns a persistent worker runtime shared by a whole mining
	// session (candidate mining plus any number of miner calls); carry
	// it in ParallelOptions.Session and Close it when done. A nil
	// Session means the shared package-wide runtime, which is also
	// persistent. Sessions never change results, only where the
	// parallel phases run.
	Session = core.Session

	// Metrics are the paper's evaluation criteria for a rule set.
	Metrics = eval.Metrics
	// RuleStats pairs a rule with its support and maximum confidence.
	RuleStats = eval.RuleStats

	// Profile describes a synthetic dataset to generate.
	Profile = synth.Profile
)

// Views.
const (
	Left  = dataset.Left
	Right = dataset.Right
)

// Rule directions.
const (
	Forward  = core.Forward
	Backward = core.Backward
	Both     = core.Both
)

// NewDataset returns an empty dataset over the given item vocabularies.
func NewDataset(namesL, namesR []string) (*Dataset, error) {
	return dataset.New(namesL, namesR)
}

// GenericNames returns ["p0", "p1", ...] for unnamed vocabularies.
func GenericNames(prefix string, n int) []string {
	return dataset.GenericNames(prefix, n)
}

// ReadDataset parses a dataset in the text format (see dataset.Read).
func ReadDataset(r io.Reader) (*Dataset, error) { return dataset.Read(r) }

// ReadDatasetFile reads a dataset file.
func ReadDatasetFile(path string) (*Dataset, error) { return dataset.ReadFile(path) }

// WriteDataset serializes a dataset in the text format.
func WriteDataset(w io.Writer, d *Dataset) error { return dataset.Write(w, d) }

// WriteDatasetFile writes a dataset file.
func WriteDatasetFile(path string, d *Dataset) error { return dataset.WriteFile(path, d) }

// Parallel returns a ParallelOptions with the given worker count, for
// concise option literals: ExactOptions{ParallelOptions: Parallel(4)}.
func Parallel(workers int) ParallelOptions { return core.Parallel(workers) }

// NewSession starts a mining session with its own persistent worker
// runtime: workers spawn lazily on the first parallel phase, park
// between phases, and exit on Close. Use one Session for a batch of
// related mining calls to avoid relaunching goroutines per round.
func NewSession() *Session { return core.NewSession() }

// MineExact runs TRANSLATOR-EXACT (parameter-free, optimal rule per
// iteration; for datasets with moderate numbers of items). The
// branch-and-bound search parallelizes across ParallelOptions.Workers
// goroutines (0 = GOMAXPROCS, 1 = serial) with results independent of the
// worker count. Cancelling ctx aborts the search at the next checkpoint
// and returns the table mined so far alongside ctx.Err().
func MineExact(ctx context.Context, d *Dataset, opt ExactOptions) (*Result, error) {
	return core.MineExact(ctx, d, opt)
}

// MineCandidates mines the closed frequent two-view itemsets that serve
// as candidates for MineSelect and MineGreedy. maxResults guards against
// pattern explosion (0 = unbounded). The ECLAT walk parallelizes across
// par.Workers goroutines with results independent of the worker count.
// Cancelling ctx aborts the walk and returns ctx.Err().
func MineCandidates(ctx context.Context, d *Dataset, minSupport, maxResults int, par ParallelOptions) ([]Candidate, error) {
	return core.MineCandidates(ctx, d, minSupport, maxResults, par)
}

// MineCandidatesCapped is MineCandidates with automatic support raising:
// on a pattern explosion it doubles minSupport until at most maxResults
// candidates remain, returning the effective support used (the paper's
// §6.1 protocol). Prefer this on unfamiliar data.
func MineCandidatesCapped(ctx context.Context, d *Dataset, minSupport, maxResults int, par ParallelOptions) ([]Candidate, int, error) {
	return core.MineCandidatesCapped(ctx, d, minSupport, maxResults, par)
}

// MineSelect runs TRANSLATOR-SELECT(k) over the candidates. Cancelling
// ctx aborts the run at the next checkpoint and returns the table mined
// so far alongside ctx.Err().
func MineSelect(ctx context.Context, d *Dataset, cands []Candidate, opt SelectOptions) (*Result, error) {
	return core.MineSelect(ctx, d, cands, opt)
}

// MineGreedy runs TRANSLATOR-GREEDY over the candidates. Cancelling ctx
// aborts the pass at the next checkpoint and returns the table mined so
// far alongside ctx.Err().
func MineGreedy(ctx context.Context, d *Dataset, cands []Candidate, opt GreedyOptions) (*Result, error) {
	return core.MineGreedy(ctx, d, cands, opt)
}

// Summarize computes the paper's evaluation metrics for a mining result.
func Summarize(d *Dataset, res *Result) Metrics { return eval.FromResult(d, res) }

// EvaluateTable scores an arbitrary translation table on a dataset under
// the paper's MDL encoding (useful for comparing external rule sets).
func EvaluateTable(d *Dataset, t *Table) Metrics {
	return eval.Evaluate(d, mdl.NewCoder(d), t)
}

// TopRules returns the first n rules of a table with support and maximum
// confidence, in mining order.
func TopRules(d *Dataset, t *Table, n int) []RuleStats { return eval.TopRules(d, t, n) }

// MaxConfidence returns c+(X ◇ Y) = max of the rule's two directional
// confidences on the dataset.
func MaxConfidence(d *Dataset, r Rule) float64 { return eval.MaxConfidence(d, r) }

// RuleQuality collects the standard interestingness measures of a rule
// (confidences, lift, leverage, Jaccard).
type RuleQuality = eval.RuleQuality

// Quality computes all interestingness measures for one rule.
func Quality(d *Dataset, r Rule) RuleQuality { return eval.Quality(d, r) }

// QualityTable computes interestingness measures for every rule of a
// table, in table order.
func QualityTable(d *Dataset, t *Table) []RuleQuality { return eval.QualityTable(d, t) }

// WriteDot renders a rule set as a Graphviz bipartite graph (Fig. 3 of
// the paper).
func WriteDot(w io.Writer, d *Dataset, t *Table, title string) error {
	return eval.WriteDot(w, d, t, title)
}

// WriteTable serializes a translation table using item names, so it can
// be stored, reviewed and later re-applied.
func WriteTable(w io.Writer, d *Dataset, t *Table) error { return core.WriteTable(w, d, t) }

// ReadTable parses a stored translation table against d's vocabularies.
func ReadTable(r io.Reader, d *Dataset) (*Table, error) { return core.ReadTable(r, d) }

// WriteTableFile writes a translation table to a file.
func WriteTableFile(path string, d *Dataset, t *Table) error {
	return core.WriteTableFile(path, d, t)
}

// ReadTableFile reads a translation table from a file.
func ReadTableFile(path string, d *Dataset) (*Table, error) {
	return core.ReadTableFile(path, d)
}

// ApplyReport summarizes applying a table to a dataset.
type ApplyReport = core.ApplyReport

// Apply translates view `from` of d with t and reports translation and
// correction statistics. It compiles t and applies it once; callers
// applying the same table repeatedly should CompileTranslator
// themselves and amortize the preparation across calls.
func Apply(ctx context.Context, d *Dataset, t *Table, from View) (ApplyReport, error) {
	return core.Apply(ctx, d, t, from)
}

// Translator is a translation table compiled against a dataset's
// vocabularies for repeated application — the serving-side artifact of
// "mine once, Apply many". It is immutable after compilation and safe
// for concurrent use by any number of goroutines.
type Translator = core.Translator

// CompileTranslator compiles t against d's vocabularies into
// item-indexed rule posting lists. Compile once, then TranslateIDs /
// TranslateBatchIDs / Apply / ApplyStream any number of times.
func CompileTranslator(d *Dataset, t *Table) (*Translator, error) {
	return core.CompileTranslator(d, t)
}

// Generate builds a synthetic two-view dataset from a profile, returning
// the planted ground-truth rules alongside the data.
func Generate(p Profile) (*Dataset, []Rule, error) { return synth.Generate(p) }

// Profiles returns the fourteen dataset profiles calibrated to the
// paper's Table 1.
func Profiles() []Profile { return synth.Profiles() }

// ProfileByName returns the named calibrated profile.
func ProfileByName(name string) (Profile, error) { return synth.ProfileByName(name) }
