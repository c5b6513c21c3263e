package lint

import (
	"go/ast"
	"go/types"
)

// Nowallclock keeps timing and randomness out of the packages whose
// outputs must be pure functions of (dataset, options): the mining
// core, the candidate walk, the bit kernels, the coder, the itemset
// utilities and the worker pool. A time.Now-derived value or a
// math/rand draw that leaks into a mined table makes runs unreproducible
// in a way no worker-count sweep can catch. Observational timing is
// confined to single annotated helpers — core.stopwatch for the
// reported Result.Runtime metric, server.now for serving-side latency
// reporting — rather than scattered call sites.
var Nowallclock = &Analyzer{
	Name:      "nowallclock",
	Directive: "wallclock-ok",
	Doc: "forbid time.Now/time.Since and math/rand in the mining, kernel, " +
		"translator and serving packages (internal/core, internal/mine, " +
		"internal/bitset, internal/itemset, internal/mdl, internal/pool, " +
		"internal/server, internal/fault, internal/shard) outside _test.go files: " +
		"timing and randomness must never influence mined tables or served " +
		"translations. Purely observational sites carry //lint:wallclock-ok <reason>.",
	Run: runNowallclock,
}

// internal/server and internal/fault join the scope with the serving
// daemon: translations must stay pure functions of (table, row), and
// failpoint schedules must replay identically, so both packages confine
// wall-clock reads to one annotated helper (server.now) and flag any
// new site. Timer-based waiting (time.NewTimer, time.Sleep through a
// scheduled fault delay) is fine; reading the clock is not.
// internal/shard joins with the sharded engine: its supervision runs
// entirely on timers (lease expiry re-arms time.NewTimer) precisely so
// no mining or recovery decision ever reads the clock — a clock-read
// lease would make failure schedules, and therefore runStats,
// machine-dependent. It reads the clock nowhere: core's Mine* entry
// points time sharded runs too, with core.stopwatch, the repo's one
// stopwatch. internal/wire and cmd/shardworker
// extend the same discipline over TCP: redial backoff is deterministic
// doubling, leases travel as durations and run on timers at the
// receiver, and the wire format carries no timestamps — a clock read
// on either side would make connection-failure schedules
// machine-dependent.
var nowallclockScopes = []string{
	"internal/core", "internal/mine", "internal/bitset",
	"internal/itemset", "internal/mdl", "internal/pool",
	"internal/server", "internal/fault", "internal/shard",
	"internal/wire", "cmd/shardworker",
}

// wallClockFuncs are the forbidden time package entry points. Duration
// arithmetic and constants are fine; only reading the clock is not.
var wallClockFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

func runNowallclock(pass *Pass) error {
	if !hasScope(pass.Pkg.Path(), nowallclockScopes...) {
		return nil
	}
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			switch imp.Path.Value {
			case `"math/rand"`, `"math/rand/v2"`:
				pass.report(imp.Pos(),
					"math/rand in a determinism-critical package: randomness must never influence mined results")
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj := pass.ObjectOf(sel.Sel)
			if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "time" {
				return true
			}
			if _, isFunc := obj.(*types.Func); isFunc && wallClockFuncs[obj.Name()] {
				pass.report(sel.Pos(),
					"time.%s in a determinism-critical package: wall-clock values must never influence mined results "+
						"(annotate //lint:wallclock-ok <reason> for purely observational metrics)", obj.Name())
			}
			return true
		})
	}
	return nil
}
