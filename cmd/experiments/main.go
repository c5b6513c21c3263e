// Command experiments regenerates every table and figure of the paper's
// evaluation section (§6) on the synthetic dataset analogues, plus the two
// extension experiments (planted-rule recovery, pruning ablation).
//
// Usage:
//
//	experiments -exp all -scale 0.1 -out results/
//	experiments -exp table2small -scale 0.05
//
// The scale factor shrinks every dataset proportionally; 1.0 reproduces
// the paper's dataset sizes (TRANSLATOR-EXACT on the larger small-group
// datasets then takes hours, exactly as reported in Table 2).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"twoview/internal/core"
	"twoview/internal/eval"

	// Arm the -shards flag for SELECT and GREEDY (registers the sharded
	// cover with core).
	_ "twoview/internal/shard"
)

type experiment struct {
	name string
	desc string
	run  func(ctx context.Context, w io.Writer, scale float64) error
}

func experiments() []experiment {
	return []experiment{
		{"table1", "dataset properties and L(D,∅)", func(ctx context.Context, w io.Writer, s float64) error {
			return eval.RunTable1(ctx, w, s)
		}},
		{"table2small", "search strategy comparison, small datasets (incl. EXACT)", func(ctx context.Context, w io.Writer, s float64) error {
			_, err := eval.RunTable2(ctx, w, s, true)
			return err
		}},
		{"table2large", "search strategy comparison, large datasets", func(ctx context.Context, w io.Writer, s float64) error {
			_, err := eval.RunTable2(ctx, w, s, false)
			return err
		}},
		{"table3", "TRANSLATOR vs SIGRULES, REREMI, KRIMP", func(ctx context.Context, w io.Writer, s float64) error {
			_, err := eval.RunTable3(ctx, w, s, nil)
			return err
		}},
		{"fig2", "construction of a translation table (House)", func(ctx context.Context, w io.Writer, s float64) error {
			_, err := eval.RunFig2(ctx, w, s)
			return err
		}},
		{"fig3", "DOT rule-set visualizations (CAL500, House)", eval.RunFig3},
		{"fig4", "example rules, House", func(ctx context.Context, w io.Writer, s float64) error {
			return eval.RunExampleRules(ctx, w, "house", s)
		}},
		{"fig5", "example rules, Mammals", func(ctx context.Context, w io.Writer, s float64) error {
			return eval.RunExampleRules(ctx, w, "mammals", s)
		}},
		{"fig6", "rules containing a focus item (CAL500)", eval.RunFig6},
		{"fig7", "example rules, Elections", eval.RunFig7},
		{"explosion", "§6.3 raw association-rule explosion vs |T|", func(ctx context.Context, w io.Writer, s float64) error {
			return eval.RunExplosion(ctx, w, s, nil)
		}},
		{"recovery", "extension X1: planted-rule recovery", func(ctx context.Context, w io.Writer, s float64) error {
			return eval.RunRecovery(ctx, w, s, nil)
		}},
		{"ablation", "extension X2: pruning-bound ablation", func(ctx context.Context, w io.Writer, s float64) error {
			return eval.RunAblation(ctx, w, s, 3, nil)
		}},
	}
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")

	var (
		exp     = flag.String("exp", "all", "experiment id or 'all' (table1, table2small, table2large, table3, fig2..fig7, recovery, ablation)")
		scale   = flag.Float64("scale", 0.1, "dataset scale factor; 1.0 = paper-sized")
		out     = flag.String("out", "", "directory for per-experiment output files (default: stdout only)")
		list    = flag.Bool("list", false, "list experiments and exit")
		workers = flag.Int("workers", 0, "worker goroutines for mining and candidate generation (0 = GOMAXPROCS, 1 = serial); results are identical")
		shards  = flag.Int("shards", 0, "item-range shards for the supervised sharded SELECT/GREEDY engine (0 = monolithic; EXACT always runs in-process); results are identical")
		shardAt = flag.String("shard-addrs", "", "comma-separated shardworker addresses; SELECT/GREEDY partitions run in those daemons over TCP instead of in-process (implies -shards len(addrs) when -shards is 0; EXACT ignores it); results are identical")
	)
	flag.Parse()
	eval.Workers = *workers
	eval.Shards = *shards
	for _, a := range strings.Split(*shardAt, ",") {
		if a = strings.TrimSpace(a); a != "" {
			eval.ShardAddrs = append(eval.ShardAddrs, a)
		}
	}
	// One persistent worker session serves the whole batch: every
	// experiment's mining rounds reuse the same parked workers.
	eval.Session = core.NewSession()
	defer eval.Session.Close()

	// SIGINT/SIGTERM cancel the context threaded through every runner;
	// a long experiment batch then unwinds at the next mining
	// checkpoint instead of being killed mid-write.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	all := experiments()
	if *list {
		for _, e := range all {
			fmt.Printf("  %-12s %s\n", e.name, e.desc)
		}
		return
	}

	var selected []experiment
	for _, e := range all {
		if *exp == "all" || e.name == *exp {
			selected = append(selected, e)
		}
	}
	if len(selected) == 0 {
		log.Fatalf("unknown experiment %q (use -list)", *exp)
	}
	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			log.Fatal(err)
		}
	}

	for _, e := range selected {
		fmt.Printf("=== %s: %s (scale %.2f) ===\n", e.name, e.desc, *scale)
		start := time.Now()
		var w io.Writer = os.Stdout
		var f *os.File
		if *out != "" {
			var err error
			ext := ".txt"
			if e.name == "fig3" {
				ext = ".dot"
			}
			f, err = os.Create(filepath.Join(*out, e.name+ext))
			if err != nil {
				log.Fatal(err)
			}
			w = io.MultiWriter(os.Stdout, f)
		}
		if err := e.run(ctx, w, *scale); err != nil {
			if errors.Is(err, context.Canceled) {
				log.Fatalf("%s: interrupted (outputs for this experiment are incomplete)", e.name)
			}
			log.Fatalf("%s: %v", e.name, err)
		}
		if f != nil {
			if err := f.Close(); err != nil {
				log.Fatal(err)
			}
		}
		fmt.Printf("--- %s done in %v ---\n\n", e.name, time.Since(start).Round(time.Millisecond))
	}
	if !strings.EqualFold(*exp, "all") || *out == "" {
		return
	}
	fmt.Printf("all outputs written to %s\n", *out)
}
