package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"time"

	"twoview/internal/bitset"
	"twoview/internal/core"
	"twoview/internal/dataset"
	"twoview/internal/mdl"
	"twoview/internal/pool"
)

// layerInputs carries what a workload's traced run measured into the
// per-layer report.
type layerInputs struct {
	ref      outcome   // monolith reference at the other worker count
	untraced []outcome // measured repetitions, tracing off
	traced   []outcome // the same, tracing on
	// load and traffic are set by the serve workload, whose own window
	// measures the server layer; the others serve their table in a
	// short burst.
	load    *loadResult
	traffic *traffic
	// monolith is the monolith's pipeline time at all CPUs, set by
	// shard-tcp, whose measured runs are not the monolith; the others
	// take their measured or reference run, whichever used all CPUs.
	monolith float64
}

// reportLayers derives the per-layer metrics of a traced run from its
// spans and from replays of single layers on the workload's own data.
func (b *bench) reportLayers(ctx context.Context, d *dataset.Dataset, par core.ParallelOptions, in layerInputs) error {
	cands := in.traced[0].cands
	if err := b.exactLayer(ctx); err != nil {
		return err
	}

	spans := b.tr.snapshot()
	if err := reconcile(spans); err != nil {
		b.rep.fail("trace: %v", err)
	}
	var tracedWalls, eclatAlloc, rounds []float64
	for _, o := range in.traced {
		eclatAlloc = append(eclatAlloc, mib(o.eclatA))
		tracedWalls = append(tracedWalls, seconds(o.wall))
		rounds = append(rounds, o.rounds...)
	}
	mine := median(walls(in.untraced))
	nRounds := len(in.ref.rounds)
	b.rep.set("eclat.busy_s", median(durations(spans, "eclat")))
	b.rep.set("eclat.candidates", float64(len(cands)))
	b.rep.set("eclat.alloc_mb", median(eclatAlloc))
	b.rep.set("select.busy_s", median(durations(spans, "select")))
	b.rep.set("select.rounds", float64(nRounds))
	rs := summarize(rounds)
	b.rep.set("select.round_ms_p50", rs.P50)
	b.rep.set("select.round_ms_max", rs.Max)
	b.rep.set("select.evals", float64(len(cands)*nRounds))
	b.rep.set("greedy.busy_s", median(durations(spans, "greedy")))
	b.rep.set("greedy.rules", float64(in.traced[0].greedyRules))
	serialT, parallelT := seconds(in.ref.wall), mine
	if b.workers == 1 {
		serialT, parallelT = mine, seconds(in.ref.wall)
	}
	b.rep.set("pool.speedup", serialT/parallelT)
	b.rep.set("trace.overhead", median(tracedWalls)/mine)
	b.rep.set("trace.unaccounted", unaccounted(spans, "pipeline"))
	b.note("traced mine_s %v against untraced %v", summarize(tracedWalls), summarize(walls(in.untraced)))
	b.note("round ms %v", rs)

	if err := b.stateLayer(d, cands, in.ref.table); err != nil {
		return err
	}
	b.bitsetLayer(d)
	b.poolLayer()
	tr, err := b.translatorLayer(ctx, d, in.ref.table)
	if err != nil {
		return err
	}
	if in.load == nil {
		if in.load, in.traffic, err = b.serveBurst(ctx, d, tr); err != nil {
			return err
		}
	}
	if err := b.serverLayer(in.load, in.traffic); err != nil {
		return err
	}
	if err := b.shardLayer(ctx, d, in.ref.tables); err != nil {
		return err
	}
	if in.monolith == 0 {
		in.monolith = parallelT
		for _, m := range []string{"wire.frames", "wire.bytes", "wire.bytes_per_rule", "wire.setup_bytes"} {
			b.rep.set(m, 0)
		}
	}
	b.rep.set("shard.monolith_s", in.monolith)
	return nil
}

// exactLayer runs the EXACT probe: EXACT on car, permuted by the seed,
// traced at one worker and checked against a run at all CPUs.
func (b *bench) exactLayer(ctx context.Context) error {
	d, err := makeInput(exactProfile, b.seed, true)
	if err != nil {
		return err
	}
	ref, err := exactPipeline(ctx, d, core.Parallel(b.cpus), nil)
	if err != nil {
		return fmt.Errorf("EXACT probe at %d workers: %w", b.cpus, err)
	}
	b.rep.attempted++
	out, err := exactPipeline(ctx, d, core.Parallel(1), b.tr)
	if err != nil {
		return fmt.Errorf("EXACT probe: %w", err)
	}
	if !bytes.Equal(out.tables, ref.tables) {
		b.rep.fail("EXACT probe: the table differs from the one mined at %d workers", b.cpus)
	}
	if len(out.rounds) == 0 {
		return fmt.Errorf("EXACT probe: no rule was mined")
	}
	b.rep.set("exact.busy_s", seconds(out.wall))
	b.rep.set("exact.rules", float64(out.rules))
	b.rep.set("exact.iter_s_first", out.rounds[0]/1e3)
	b.rep.set("exact.iter_s_last", out.rounds[len(out.rounds)-1]/1e3)
	b.note("EXACT probe: %d rules in %.3fs, iterations ms %.4g", out.rules, seconds(out.wall), out.rounds)
	return nil
}

// stateLayer replays the cover state from outside: NewState, the gain
// of every rule the candidates induce, and applying the mined table.
func (b *bench) stateLayer(d *dataset.Dataset, cands []core.Candidate, table *core.Table) error {
	coder := mdl.NewCoder(d)
	var ms0, ms1 runtime.MemStats
	var news []float64
	const reps = 5
	runtime.ReadMemStats(&ms0)
	for i := 0; i < reps; i++ {
		start := time.Now()
		core.NewState(d, coder)
		news = append(news, millis(time.Since(start)))
	}
	runtime.ReadMemStats(&ms1)
	b.rep.set("state.new_ms", median(news))
	b.rep.set("state.new_alloc_mb", mib(ms1.TotalAlloc-ms0.TotalAlloc)/reps)

	s := core.NewState(d, coder)
	if len(cands) == 0 {
		return fmt.Errorf("state replay: no candidates")
	}
	start := time.Now()
	n := 0
	for _, c := range cands {
		for _, dir := range core.Directions {
			s.GainWithTids(core.Rule{X: c.X, Dir: dir, Y: c.Y}, c.TidX, c.TidY)
			n++
		}
	}
	b.rep.set("state.gain_ns", float64(time.Since(start).Nanoseconds())/float64(n))

	if len(table.Rules) == 0 {
		return fmt.Errorf("state replay: the mined table is empty")
	}
	start = time.Now()
	for _, r := range table.Rules {
		s.AddRule(r)
	}
	b.rep.set("state.apply_us", float64(time.Since(start).Nanoseconds())/1e3/float64(len(table.Rules)))
	return nil
}

// bitsetLayer times the AndCount and IntersectIntoSum kernels on every
// (left column, right column) pair of the workload's data: the tidset
// width is the dataset's, so the kernels run above or below the striped
// kernels' width gate exactly as the miners' calls do.
func (b *bench) bitsetLayer(d *dataset.Dataset) {
	colsL, colsR := d.Columns(dataset.Left), d.Columns(dataset.Right)
	words := len(colsL[0].Words())
	weights := make([]float64, d.Size())
	for i := range weights {
		weights[i] = 1 + float64(i%7)
	}
	dst := bitset.New(d.Size())
	pairs := len(colsL) * len(colsR)
	sink := 0.0

	// timeSweeps repeats full sweeps over the pairs in batches of at
	// least 20ms and returns the median ns per word of five batches.
	timeSweeps := func(kernel func(a, c *bitset.Set)) float64 {
		var perWord []float64
		for batch := 0; batch < 5; batch++ {
			start := time.Now()
			n := 0
			for time.Since(start) < 20*time.Millisecond {
				for _, a := range colsL {
					for _, c := range colsR {
						kernel(a, c)
					}
				}
				n += pairs
			}
			perWord = append(perWord, float64(time.Since(start).Nanoseconds())/float64(n*words))
		}
		return median(perWord)
	}
	and := timeSweeps(func(a, c *bitset.Set) { sink += float64(bitset.AndCount(a, c)) })
	sum := timeSweeps(func(a, c *bitset.Set) { sink += bitset.IntersectIntoSum(dst, a, c, weights) })
	b.rep.set("bitset.words", float64(words))
	b.rep.set("bitset.andcount_ns_per_word", and)
	b.rep.set("bitset.intersectsum_ns_per_word", sum)
	// Computed bytes: AndCount reads two operand words per word of width.
	b.rep.set("bitset.computed_gbps", 16/and)
	b.note("bitset: %d words, AndCount %.3f ns/word, IntersectIntoSum %.3f ns/word (checksum %g)", words, and, sum, sink)
}

// poolLayer times an empty phase (one no-op task per worker) on a
// worker runtime of the kind a Session owns.
func (b *bench) poolLayer() {
	rt := pool.NewRuntime()
	defer rt.Close()
	p := pool.NewOn(rt, b.cpus, func(int) struct{} { return struct{}{} })
	noop := func(struct{}, int) {}
	p.Run(b.cpus, noop) // spawn the workers outside the timing
	var per []float64
	for batch := 0; batch < 5; batch++ {
		const phases = 500
		start := time.Now()
		for i := 0; i < phases; i++ {
			p.Run(b.cpus, noop)
		}
		per = append(per, float64(time.Since(start).Nanoseconds())/phases/1e3)
	}
	b.rep.set("pool.phase_us", median(per))
}

// translatorLayer compiles the mined table and times in-process batch
// translation of every left row of the workload's data.
func (b *bench) translatorLayer(ctx context.Context, d *dataset.Dataset, table *core.Table) (*core.Translator, error) {
	var compiles []float64
	var tr *core.Translator
	for i := 0; i < 20; i++ {
		start := time.Now()
		var err error
		if tr, err = core.CompileTranslator(d, table); err != nil {
			return nil, fmt.Errorf("compiling the mined table: %w", err)
		}
		compiles = append(compiles, float64(time.Since(start).Nanoseconds())/1e3)
	}
	b.rep.set("translator.compile_us", median(compiles))
	rows := leftRows(d)
	var per []float64
	for pass := 0; pass < 5; pass++ {
		start := time.Now()
		if _, err := tr.TranslateBatchIDs(ctx, dataset.Left, rows); err != nil {
			return nil, fmt.Errorf("translating: %w", err)
		}
		per = append(per, float64(time.Since(start).Nanoseconds())/float64(len(rows)))
	}
	b.rep.set("translator.match_ns_per_row", median(per))
	return tr, nil
}

func leftRows(d *dataset.Dataset) [][]int {
	rows := make([][]int, d.Size())
	for t := range rows {
		rows[t] = d.Row(dataset.Left, t).Indices()
	}
	return rows
}

// shardLayer runs the pipeline once on the in-process sharded engine
// (two shards, all CPUs, no network) and checks it against the
// reference: the protocol's cost without the network's.
func (b *bench) shardLayer(ctx context.Context, d *dataset.Dataset, ref []byte) error {
	sess := core.NewSession()
	defer sess.Close()
	b.rep.attempted++
	out, err := b.pipeline(ctx, d, core.ParallelOptions{Workers: b.cpus, Shards: 2, Session: sess}, nil)
	if err != nil {
		return fmt.Errorf("in-process shards: %w", err)
	}
	if !bytes.Equal(out.tables, ref) {
		b.rep.fail("in-process shards: tables differ from the monolith reference")
	}
	b.rep.set("shard.inproc_s", seconds(out.wall))
	return nil
}
