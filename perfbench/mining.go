package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"time"

	"twoview/internal/core"
	"twoview/internal/dataset"
)

// outcome is one mining pipeline run.
type outcome struct {
	tables      []byte      // WriteTable bytes of every mined table, in order
	table       *core.Table // the SELECT (or EXACT) table, the one that is served
	cands       []core.Candidate
	rules       int       // rules over all mined tables
	greedyRules int       // rules of the GREEDY table
	rounds      []float64 // wall time per SELECT round (EXACT iteration in the probe), ms
	wall        time.Duration
	alloc       uint64 // bytes allocated by the whole pipeline
	eclatA      uint64 // bytes allocated by candidate mining
}

// pipeline runs the workload's mining pipeline once: candidate mining,
// SELECT(1) and GREEDY. With a tracer it records a "pipeline" span and
// one child span per layer call, with SELECT rounds as grandchildren
// delimited by the public OnIteration hook.
func (b *bench) pipeline(ctx context.Context, d *dataset.Dataset, par core.ParallelOptions, tr *tracer) (outcome, error) {
	var out outcome
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	root := tr.begin("pipeline", 0)
	defer tr.end(root)

	sp := tr.begin("eclat", root)
	cands, err := core.MineCandidates(ctx, d, b.spec.minsup, b.spec.maxCands, par)
	tr.end(sp)
	if err != nil {
		return out, fmt.Errorf("candidates at minsup %d: %w", b.spec.minsup, err)
	}
	runtime.ReadMemStats(&ms1)
	out.eclatA = ms1.TotalAlloc - ms0.TotalAlloc
	out.cands = cands

	var buf bytes.Buffer
	sp = tr.begin("select", root)
	sel, err := core.MineSelect(ctx, d, cands, core.SelectOptions{
		K: 1, MaxRules: b.spec.selectRules, ParallelOptions: par,
		OnIteration: roundClock(tr, sp, &out.rounds),
	})
	tr.end(sp)
	if err != nil {
		return out, fmt.Errorf("SELECT(1): %w", err)
	}
	out.table = sel.Table
	if err := core.WriteTable(&buf, d, sel.Table); err != nil {
		return out, err
	}

	sp = tr.begin("greedy", root)
	gr, err := core.MineGreedy(ctx, d, cands, core.GreedyOptions{ParallelOptions: par})
	tr.end(sp)
	if err != nil {
		return out, fmt.Errorf("GREEDY: %w", err)
	}
	out.greedyRules = len(gr.Table.Rules)
	out.rules = len(sel.Table.Rules) + len(gr.Table.Rules)
	if err := core.WriteTable(&buf, d, gr.Table); err != nil {
		return out, err
	}
	out.wall = time.Since(start)
	runtime.ReadMemStats(&ms1)
	out.alloc = ms1.TotalAlloc - ms0.TotalAlloc
	out.tables = buf.Bytes()
	return out, nil
}

// exactPipeline runs EXACT on d, capped at exactRules rules, recording a
// "pipeline" span with an "exact" child and one "round" grandchild per
// iteration.
func exactPipeline(ctx context.Context, d *dataset.Dataset, par core.ParallelOptions, tr *tracer) (outcome, error) {
	var out outcome
	start := time.Now()
	root := tr.begin("pipeline", 0)
	defer tr.end(root)

	sp := tr.begin("exact", root)
	res, err := core.MineExact(ctx, d, core.ExactOptions{
		MaxRules: exactRules, ParallelOptions: par,
		OnIteration: roundClock(tr, sp, &out.rounds),
	})
	tr.end(sp)
	if err != nil {
		return out, fmt.Errorf("EXACT: %w", err)
	}
	out.wall = time.Since(start)
	var buf bytes.Buffer
	if err := core.WriteTable(&buf, d, res.Table); err != nil {
		return out, err
	}
	out.table, out.rules, out.tables = res.Table, len(res.Table.Rules), buf.Bytes()
	return out, nil
}

// roundClock returns an OnIteration hook that times each round from the
// previous boundary (the miner call's start for the first) and records
// it as a "round" span under parent.
func roundClock(tr *tracer, parent int, rounds *[]float64) core.IterationFunc {
	last := time.Now()
	return func(core.IterationStats) bool {
		now := time.Now()
		tr.add("round", parent, last, now)
		*rounds = append(*rounds, millis(now.Sub(last)))
		last = now
		return true
	}
}

// generate builds the workload's input repeatedly, at least setupReps
// times and for at least setupMin, and returns the last dataset with the
// generation times: the set-up of the mining workloads. Cheap inputs
// (a few ms for car) get enough repetitions for a steady median.
func (b *bench) generate() (*dataset.Dataset, []float64, error) {
	var d *dataset.Dataset
	var times []float64
	start := time.Now()
	for len(times) < setupReps || time.Since(start) < setupMin {
		t := time.Now()
		var err error
		if d, err = makeInput(b.spec.profile, b.seed, false); err != nil {
			return nil, nil, err
		}
		times = append(times, seconds(time.Since(t)))
	}
	return d, times, nil
}

// setupReps is how often a run repeats its set-up to report the median;
// setupMin is the least time generate spends doing so.
const (
	setupReps = 5
	setupMin  = 500 * time.Millisecond
)

// reference runs the pipeline once on the monolith at the other worker
// count than the measured runs (all CPUs for serial workloads, one
// worker otherwise): the oracle every measured table must match byte
// for byte, since tables must not depend on the worker count.
func (b *bench) reference(ctx context.Context, d *dataset.Dataset) (outcome, error) {
	workers := 1
	if b.workers == 1 {
		workers = b.cpus
	}
	ref, err := b.pipeline(ctx, d, core.Parallel(workers), nil)
	if err != nil {
		return ref, fmt.Errorf("reference at %d workers: %w", workers, err)
	}
	b.note("reference at %d workers: %.3fs, %d rules", workers, seconds(ref.wall), ref.rules)
	return ref, nil
}

// measure repeats the pipeline until window has passed (at least
// once) and checks every repetition's tables against the reference.
// Equality with the reference implies equality with the first
// repetition, so one comparison covers both oracles.
func (b *bench) measure(ctx context.Context, d *dataset.Dataset, par core.ParallelOptions, tr *tracer, ref []byte, window time.Duration) []outcome {
	var outs []outcome
	deadline := time.Now().Add(window)
	for len(outs) == 0 || time.Now().Before(deadline) {
		// Start every repetition from a collected heap: the pipeline's
		// pooled scratch (sync.Pool) survives or not depending on where
		// earlier collections fell, which moved alloc_mb by up to 30%
		// between runs.
		runtime.GC()
		b.rep.attempted++
		out, err := b.pipeline(ctx, d, par, tr)
		if err != nil {
			b.rep.fail("repetition %d: %v", len(outs)+1, err)
			if len(outs) == 0 {
				return nil
			}
			continue
		}
		if !bytes.Equal(out.tables, ref) {
			b.rep.fail("repetition %d: tables differ from the monolith reference", len(outs)+1)
		}
		if len(outs) > 0 {
			// Only the first repetition's candidates are used later;
			// holding every repetition's tidsets would grow the peak
			// RSS with the number of repetitions.
			out.cands = nil
		}
		outs = append(outs, out)
	}
	return outs
}

// runMining drives mine-dense.
func (b *bench) runMining() error {
	ctx := context.Background()
	d, setup, err := b.generate()
	if err != nil {
		return err
	}
	ref, err := b.reference(ctx, d)
	if err != nil {
		return err
	}
	sess := core.NewSession()
	defer sess.Close()
	par := core.ParallelOptions{Workers: b.workers, Session: sess}
	outs := b.measure(ctx, d, par, nil, ref.tables, b.window)
	if len(outs) == 0 {
		return fmt.Errorf("no repetition succeeded")
	}
	if !b.traced {
		return b.reportEndToEnd(d, setup, outs, nil)
	}
	traced := b.measure(ctx, d, par, b.tr, ref.tables, b.window)
	if len(traced) == 0 {
		return fmt.Errorf("no traced repetition succeeded")
	}
	return b.reportLayers(ctx, d, par, layerInputs{ref: ref, untraced: outs, traced: traced})
}

// reportEndToEnd sets the end-to-end metrics of a mining workload.
// extraRSS adds the peak RSS of helper processes (the shard workers).
func (b *bench) reportEndToEnd(d *dataset.Dataset, setup []float64, outs []outcome, extraRSS []float64) error {
	var allocs []float64
	for _, o := range outs {
		allocs = append(allocs, mib(o.alloc))
	}
	rss, err := peakRSSMB(0)
	if err != nil {
		return err
	}
	for _, x := range extraRSS {
		rss += x
	}
	mine := summarize(walls(outs))
	lat := summarize(roundProfile(outs))
	b.note("mine_s %v", mine)
	b.note("round latency ms, per-round medians over %d repetitions: %v", len(outs), lat)
	b.note("setup_s %v", summarize(setup))
	b.rep.set("setup_s", median(setup))
	b.rep.set("mine_s", mine.P50)
	// The least, not the median: whether a repetition reuses the
	// pipeline's pooled scratch depends on which P its goroutine ran on
	// and where collections fell, which made the median jump between
	// 29, 34 and 39 MB from run to run on elections.
	b.rep.set("alloc_mb", summarize(allocs).Min)
	b.rep.set("peak_rss_mb", rss)
	b.rep.set("rows_per_s", float64(d.Size())/mine.P50)
	b.rep.set("latency_p50_ms", lat.P50)
	b.rep.set("latency_p99_ms", lat.P99)
	return nil
}

// roundProfile returns, for each SELECT round, its median latency across
// the repetitions. Every repetition mines the same table, so round i is
// the same work in each; taking the median per round before the
// percentiles keeps one disturbed repetition from setting the tail,
// which with 24 rounds per pipeline would otherwise be a single sample.
func roundProfile(outs []outcome) []float64 {
	n := len(outs[0].rounds)
	for _, o := range outs {
		n = min(n, len(o.rounds))
	}
	prof := make([]float64, n)
	col := make([]float64, len(outs))
	for i := range prof {
		for j, o := range outs {
			col[j] = o.rounds[i]
		}
		prof[i] = median(col)
	}
	return prof
}
