package core

import (
	"time"

	"twoview/internal/dataset"
)

// IterationStats records one step of table construction. The series over
// all iterations regenerates Fig. 2 of the paper (numbers of uncovered
// and erroneous items, and the evolution of the encoded lengths).
type IterationStats struct {
	Iteration  int     // 1-based
	Rule       Rule    // the rule added in this iteration
	Gain       float64 // Δ_{D,T}(rule) at the time of addition
	Score      float64 // L(D_L↔R, T) after the addition
	UncoveredL int     // |U_L| after the addition
	UncoveredR int     // |U_R|
	ErrorsL    int     // |E_L|
	ErrorsR    int     // |E_R|
	TableLen   float64 // L(T)
	CorrLenL   float64 // L(D_L←R | T) = L(C_L | T)
	CorrLenR   float64 // L(D_L→R | T) = L(C_R | T)
}

// IterationFunc is the OnIteration progress hook shared by all three
// miners: it observes each added rule and steers the run — returning
// false stops mining cleanly after the current iteration (the partial
// table is returned with a nil error). It is invoked between search
// phases, never concurrently.
type IterationFunc func(IterationStats) bool

// Result is the output of a TRANSLATOR algorithm: the table and the
// scalar totals of its cover, which is all the paper reports of a run
// (|T|, L(D,T), L% and |C|%, see CoverTotals.Ratios). It holds no cover
// state: the U/E columns die with the run, whatever the caller keeps.
type Result struct {
	Table *Table
	// Totals are the cover totals the last added rule left (those of
	// the empty table when no rule was added): |U|, |E| and L(C|T).
	Totals     *CoverTotals
	Iterations []IterationStats // one entry per added rule
	Runtime    time.Duration
	Work       Work // the run's algorithmic work
}

// Work counts the algorithmic work of one run. Each miner fills only
// its own fields, and at one worker every count is an exact function of
// the input. Counting is always on and write-only: no mining decision
// reads a count. TestWorkBudget gates the counts against the budgets in
// testdata/work.json.
type Work struct {
	// SELECT: scoring rounds, the (slot, item) pairs the driver asks
	// the cover to recount (per round, the consequent items its Score
	// mask marks of each slot in its batch: the stale slots whose bound
	// reaches the round's k-th best gain), and the bounds it refolds.
	Rounds   int64 `json:"rounds,omitempty"`
	Recounts int64 `json:"recounts,omitempty"`
	Refolds  int64 `json:"refolds,omitempty"`
	// GREEDY: speculation windows, and the candidates scored in them.
	Windows int64 `json:"windows,omitempty"`
	Scored  int64 `json:"scored,omitempty"`
	// SELECT and GREEDY: the memo cells the local cover counted.
	Cells int64 `json:"cells,omitempty"`
	// EXACT, over all iterations: DFS nodes visited, pairs whose exact
	// gains were evaluated, subtrees pruned by rub and evaluations
	// skipped by qub.
	Nodes     int64 `json:"nodes,omitempty"`
	Pairs     int64 `json:"pairs,omitempty"`
	RubPrunes int64 `json:"rub_prunes,omitempty"`
	QubSkips  int64 `json:"qub_skips,omitempty"`
}

// Record captures the state after adding rule r, read off the cover
// totals and the table that now ends with r, appends it to the result,
// keeps the totals as the result's, and forwards it to the OnIteration
// hook if any. It reports whether mining should continue: false as soon
// as the hook asks for an early stop. Every miner records through it.
func (res *Result) Record(totals *CoverTotals, table *Table, r Rule, gain float64, onIter IterationFunc) bool {
	res.Totals = totals
	it := IterationStats{
		Iteration:  len(res.Iterations) + 1,
		Rule:       r,
		Gain:       gain,
		Score:      totals.Score(table),
		UncoveredL: totals.UOnes[dataset.Left],
		UncoveredR: totals.UOnes[dataset.Right],
		ErrorsL:    totals.EOnes[dataset.Left],
		ErrorsR:    totals.EOnes[dataset.Right],
		TableLen:   table.Len(totals.coder),
		CorrLenL:   totals.CorrLen[dataset.Left],
		CorrLenR:   totals.CorrLen[dataset.Right],
	}
	res.Iterations = append(res.Iterations, it)
	return onIter == nil || onIter(it)
}

// GainEpsilon guards against accepting rules whose gain is positive
// only through floating-point noise. Exported for internal/shard's
// chaos test, which counts the candidates that pass the qub filter
// against the threshold the miners apply.
const GainEpsilon = 1e-9

// stopwatch starts timing and returns a function reporting the elapsed
// wall time. It is the single sanctioned wall-clock read of the miners,
// sharded runs included (the Mine* entry points time the dispatch to
// the shard engine too): the duration lands in Result.Runtime, which is
// observational metadata and never feeds back into a mining decision,
// so confining time.Now/Since here keeps the nowallclock invariant
// auditable at one site.
func stopwatch() func() time.Duration {
	start := time.Now() //lint:wallclock-ok observational: feeds Result.Runtime only, never a mining decision
	return func() time.Duration {
		return time.Since(start) //lint:wallclock-ok observational: feeds Result.Runtime only, never a mining decision
	}
}
