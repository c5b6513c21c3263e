// Command perfbench is the repository's end-to-end benchmark. It runs
// one workload at paper scale through the public entry points (candidate
// mining, SELECT/GREEDY/EXACT, the compiled translator, the HTTP server,
// and the sharded engine against real shardworker processes), checks
// every output against a monolith reference run at another worker
// count, and prints the
// metrics as one JSON object on the last line of standard output.
//
// Usage (normally through run.sh, which builds this program and the
// shardworker daemon first):
//
//	perfbench -workload mine-dense -seed 1 -seconds 25 -trace 0 -shardworker PATH
//
// With -trace 0 it reports the end-to-end metrics; with -trace 1 it
// records spans around its own calls into each layer and reports the
// per-layer metrics derived from them, plus the tracing overhead. The
// metric names and units are listed in metrics.go and in BENCHMARK.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

// bench is the state of one benchmark run.
type bench struct {
	name string
	spec spec
	seed int64
	// window is how long each measured phase runs: the whole -seconds
	// in an untraced run; half of it each for the untraced and the
	// traced phase of a traced run, which compares the two.
	window  time.Duration
	traced  bool
	tr      *tracer // nil unless traced
	cpus    int
	workers int    // worker count (and serve clients) of the measured runs: 1 or cpus
	bin     string // shardworker binary

	rep report
}

// report collects metric values and the run's operation counts.
type report struct {
	vals      map[string]float64
	attempted int
	failed    int
	problems  []string
}

func (r *report) set(name string, v float64) {
	if r.vals == nil {
		r.vals = make(map[string]float64)
	}
	r.vals[name] = v
}

// fail records a failed operation with its reason.
func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// result is the JSON object of the last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: mine-dense, serve or shard-tcp")
		seed     = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		secs     = flag.Float64("seconds", 10, "measurement window per run, in seconds")
		trace    = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics; 0 = end-to-end metrics")
		worker   = flag.String("shardworker", "", "path to the shardworker binary (shard-tcp)")
	)
	flag.Parse()
	sp, ok := specs[*workload]
	if !ok || *secs <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *workload, *secs, *trace)
		os.Exit(2)
	}
	b := &bench{
		name:   *workload,
		spec:   sp,
		seed:   *seed,
		window: time.Duration(*secs * float64(time.Second)),
		traced: *trace == 1,
		cpus:   runtime.NumCPU(),
		bin:    *worker,
	}
	b.workers = b.cpus
	if sp.serial {
		b.workers = 1
	}
	if b.traced {
		b.tr = newTracer()
		b.window /= 2
	}
	if err := b.run(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", b.name, err)
		os.Exit(1)
	}
	res, err := b.result()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", b.name, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run dispatches to the workload's runner.
func (b *bench) run() error {
	switch b.name {
	case "serve":
		return b.runServe()
	case "shard-tcp":
		return b.runShardTCP()
	default:
		return b.runMining()
	}
}

// result checks that the run produced exactly the metrics its mode
// declares, prints them one per line with their units, and assembles
// the JSON result.
func (b *bench) result() (result, error) {
	decl := endToEnd
	if b.traced {
		decl = perLayer
	}
	res := result{
		Correct:   b.rep.failed == 0,
		Attempted: b.rep.attempted,
		Failed:    b.rep.failed,
		Metrics:   make(map[string]metric, len(decl)),
	}
	if res.Attempted < 1 {
		return res, fmt.Errorf("no operation was attempted")
	}
	for _, m := range decl {
		v, ok := b.rep.vals[m.name]
		if !ok {
			return res, fmt.Errorf("metric %s was not measured", m.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return res, fmt.Errorf("metric %s is %v", m.name, v)
		}
		res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
	}
	for _, p := range b.rep.problems {
		fmt.Printf("FAILED: %s\n", p)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-34s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	fmt.Printf("error_rate %.6g (%d failed of %d attempted)\n",
		float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	return res, nil
}

// note prints a human-readable line (sample counts, phase timings)
// ahead of the result.
func (b *bench) note(format string, args ...any) {
	fmt.Printf(b.name+": "+format+"\n", args...)
}
