// Command translator mines a translation table from a two-view dataset
// file using one of the three TRANSLATOR algorithms and prints the rules
// and compression statistics.
//
// Usage:
//
//	translator -in data.tv [-algo select|exact|greedy] [-k 1] [-minsup 1]
//	           [-max-rules 0] [-workers 0] [-trace] [-dot out.dot]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"

	"twoview/internal/core"
	"twoview/internal/dataset"
	"twoview/internal/eval"
	"twoview/internal/mdl"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("translator: ")

	var (
		in       = flag.String("in", "", "input dataset file (required)")
		algo     = flag.String("algo", "select", "algorithm: exact, select or greedy")
		k        = flag.Int("k", 1, "rules per iteration for select")
		minsup   = flag.Int("minsup", 1, "minimum candidate support for select/greedy")
		maxRules = flag.Int("max-rules", 0, "stop after this many rules (0 = MDL stopping only)")
		workers  = flag.Int("workers", 0, "worker goroutines for search and candidate mining (0 = GOMAXPROCS, 1 = serial); results are identical")
		trace    = flag.Bool("trace", false, "print each iteration as it happens")
		dotOut   = flag.String("dot", "", "also write a Graphviz visualization to this file")
		saveOut  = flag.String("save", "", "write the mined translation table to this file")
		loadIn   = flag.String("load", "", "apply a stored translation table instead of mining")
		quality  = flag.Bool("quality", false, "print lift/leverage/Jaccard per rule")
	)
	flag.Parse()
	if *in == "" {
		flag.Usage()
		os.Exit(2)
	}

	// SIGINT/SIGTERM cancel the mining context: a long mine unwinds at
	// the next search checkpoint and the partial table is still printed
	// (and saved with -save) instead of the process being killed.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	d, err := dataset.ReadFile(*in)
	if err != nil {
		log.Fatal(err)
	}
	st := d.Stats()
	fmt.Printf("dataset: %d transactions, %d+%d items, densities %.3f/%.3f\n",
		st.Size, st.ItemsL, st.ItemsR, st.DensityL, st.DensityR)

	if *loadIn != "" {
		tab, err := core.ReadTableFile(*loadIn, d)
		if err != nil {
			log.Fatal(err)
		}
		m := eval.Evaluate(d, mdl.NewCoder(d), tab)
		fmt.Printf("loaded %d rules from %s\n", tab.Size(), *loadIn)
		fmt.Printf("L%% = %.2f, |C|%% = %.2f, avg c+ = %.2f\n", m.LPct, m.CorrPct, m.AvgConf)
		// Compile once, apply in both directions — the serving path.
		tr, err := core.CompileTranslator(d, tab)
		if err != nil {
			log.Fatal(err)
		}
		for _, from := range []dataset.View{dataset.Left, dataset.Right} {
			rep, err := tr.Apply(ctx, d, from)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("translate %v→%v: %d items produced, %d uncovered, %d errors (of %d cells)\n",
				from, from.Opposite(), rep.TranslatedOnes, rep.Uncovered, rep.Errors, rep.Cells)
		}
		return
	}

	var onIter core.IterationFunc
	if *trace {
		onIter = func(it core.IterationStats) bool {
			fmt.Printf("  it %3d: gain %8.2f  score %10.2f  %s\n",
				it.Iteration, it.Gain, it.Score, it.Rule.Format(d))
			return true
		}
	}

	// Candidate mining and the miner share one session (the miners'
	// scratch buffers).
	sess := core.NewSession()
	defer sess.Close()
	par := core.ParallelOptions{Workers: *workers, Session: sess}
	var res *core.Result
	var mineErr error
	switch *algo {
	case "exact":
		res, mineErr = core.MineExact(ctx, d, core.ExactOptions{MaxRules: *maxRules, OnIteration: onIter, ParallelOptions: par})
	case "select", "greedy":
		cands, err := core.MineCandidates(ctx, d, *minsup, 0, par)
		if err != nil {
			if errors.Is(err, context.Canceled) {
				log.Fatal("interrupted during candidate mining; nothing to report")
			}
			log.Fatal(err)
		}
		fmt.Printf("candidates: %d closed two-view itemsets (minsup %d)\n", len(cands), *minsup)
		if *algo == "select" {
			res, mineErr = core.MineSelect(ctx, d, cands, core.SelectOptions{K: *k, MaxRules: *maxRules, OnIteration: onIter, ParallelOptions: par})
		} else {
			res, mineErr = core.MineGreedy(ctx, d, cands, core.GreedyOptions{MaxRules: *maxRules, OnIteration: onIter, ParallelOptions: par})
		}
	default:
		log.Fatalf("unknown algorithm %q", *algo)
	}
	// Mining is over: restore default signal handling so a second
	// Ctrl-C during the reporting below kills the process normally
	// instead of being swallowed by the (now useless) cancel context.
	stop()
	if mineErr != nil {
		if !errors.Is(mineErr, context.Canceled) {
			log.Fatal(mineErr)
		}
		// A cancelled mine still returns everything found so far; say so
		// and report the partial table like a completed one.
		fmt.Printf("\ninterrupted: partial table with the %d rules mined so far\n", res.Table.Size())
	}

	m := eval.FromResult(d, res)
	fmt.Printf("\ntranslation table (%d rules, found in %v):\n", m.NumRules, res.Runtime)
	if *quality {
		for _, q := range eval.QualityTable(d, res.Table) {
			fmt.Printf("  %-70s supp=%-6d c+=%.2f lift=%.2f lev=%+.3f jac=%.2f\n",
				q.Rule.Format(d), q.Supp, q.Conf, q.Lift, q.Leverage, q.Jaccard)
		}
	} else {
		for _, rs := range eval.TopRules(d, res.Table, res.Table.Size()) {
			fmt.Printf("  %-70s supp=%-6d c+=%.2f\n", rs.Rule.Format(d), rs.Supp, rs.Conf)
		}
	}
	fmt.Printf("\nL%%   = %.2f (compressed/uncompressed)\n", m.LPct)
	fmt.Printf("|C|%% = %.2f (correction ones / cells)\n", m.CorrPct)
	fmt.Printf("avg rule length = %.2f items, avg c+ = %.2f\n", m.AvgLen, m.AvgConf)

	if *dotOut != "" {
		f, err := os.Create(*dotOut)
		if err != nil {
			log.Fatal(err)
		}
		if err := eval.WriteDot(f, d, res.Table, *in); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", *dotOut)
	}
	if *saveOut != "" {
		if err := core.WriteTableFile(*saveOut, d, res.Table); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s (reload with -load)\n", *saveOut)
	}
}
