package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// Ctxprobe guards the worker-count-independent cancellation latency
// established in PR 5: every hot loop that submits pool phases or runs
// bit kernels must observe cancellation — directly (ctx.Err/ctx.Done or
// a select), by delegation (calling something that takes the ctx), or
// through a periodic `ticks&ctxProbeMask`-style probe. A new miner loop
// that forgets all three regresses cancellation latency from "bounded"
// to "until the loop finishes", which no functional test catches.
//
// Bounded per-call work that is probed one level up (the per-consequent
// kernel loops inside gainDir/applyDir) carries //lint:ctxprobe-ok.
var Ctxprobe = &Analyzer{
	Name:      "ctxprobe",
	Directive: "ctxprobe-ok",
	Doc: "require a cancellation checkpoint in miner/DFS/walk loops " +
		"(internal/core, internal/mine, internal/shard) that submit pool phases or call " +
		"bitset kernels: a ctx.Err()/ctx.Done() probe, a call threading a " +
		"context.Context, a select, or a *ProbeMask-gated periodic probe. " +
		"Loops whose per-iteration work is bounded and probed by the caller " +
		"carry //lint:ctxprobe-ok <reason>.",
	Run: runCtxprobe,
}

// internal/server is in scope because its handlers own per-request
// deadlines: a serving loop that stops observing its context regresses
// 504s back into held worker slots. internal/shard is in scope because
// it runs every round gather of the sharded SELECT and GREEDY cover: a
// sharded loop that stops observing its context turns cancellation
// into a wedged supervisor holding N shard goroutine groups.
// cmd/shardworker is in scope for the same reason on the far side of
// the wire: a host loop that stops observing its
// incarnation context would keep scoring for a coordinator that has
// already replaced it. internal/wire is registered so codec loops stay
// covered if they ever grow a kernel call.
var ctxprobeScopes = []string{
	"internal/core", "internal/mine", "internal/server", "internal/shard",
	"internal/wire", "cmd/shardworker",
}

// poolPhaseFuncs are the phase-submission entry points of
// internal/pool: calling one inside a loop makes that loop a
// round-structured hot path.
var poolPhaseFuncs = map[string]bool{
	"Run": true, "RunCtx": true, "RunErrCtx": true, "ForChunksCtx": true,
}

// kernelFuncs are the fused tidset-wide word loops of internal/bitset
// (its count, intersection and weighted-sum kernels, and Gather); a
// loop over kernel calls is a gain/update hot path.
var kernelFuncs = map[string]bool{
	"AndCount": true, "AndNotCount": true, "AndNotAndNotCount": true, "AndOrCount": true, "Gather": true,
	"IntersectInto": true, "IntersectIntoCount": true, "IntersectIntoSum": true, "WeightedSum": true,
}

func runCtxprobe(pass *Pass) error {
	if !hasScope(pass.Pkg.Path(), ctxprobeScopes...) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch loop := n.(type) {
			case *ast.ForStmt:
				body = loop.Body
			case *ast.RangeStmt:
				// Ranging over an array (not slice) has a compile-time
				// constant trip count; those loops are the small fixed
				// per-rule direction sweeps, not hot walks.
				if t := pass.TypeOf(loop.X); t != nil {
					if _, isArray := t.Underlying().(*types.Array); isArray {
						return true
					}
				}
				body = loop.Body
			default:
				return true
			}
			if !pass.loopIsHot(body) || pass.loopHasProbe(body) {
				return true
			}
			pass.report(n.Pos(),
				"loop submits pool phases or runs bitset kernels without a cancellation checkpoint; "+
					"probe ctx (ctx.Err, a ctx-threading call, or a *ProbeMask-gated check) "+
					"or annotate //lint:ctxprobe-ok <reason>")
			return true
		})
	}
	return nil
}

// loopIsHot reports whether body (including nested closures, excluding
// nested loops — those are flagged on their own) contains a pool phase
// submission or a bitset kernel call.
func (p *Pass) loopIsHot(body *ast.BlockStmt) bool {
	hot := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || hot {
			return !hot
		}
		if obj := p.calleeObject(call); obj != nil && obj.Pkg() != nil {
			path := obj.Pkg().Path()
			switch {
			case strings.HasSuffix(path, "/pool") && poolPhaseFuncs[obj.Name()]:
				hot = true
			case strings.HasSuffix(path, "/bitset") && kernelFuncs[obj.Name()]:
				hot = true
			}
		}
		return !hot
	})
	return hot
}

// loopHasProbe reports whether body contains any accepted cancellation
// evidence: a ctx.Err/ctx.Done call, any call threading a
// context.Context argument, a select statement, or a reference to a
// *ProbeMask constant (the periodic-probe idiom).
func (p *Pass) loopHasProbe(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch node := n.(type) {
		case *ast.SelectStmt:
			found = true
		case *ast.Ident:
			if strings.Contains(node.Name, "ProbeMask") || strings.Contains(node.Name, "probeMask") {
				found = true
			}
		case *ast.CallExpr:
			if sel, ok := node.Fun.(*ast.SelectorExpr); ok {
				if (sel.Sel.Name == "Err" || sel.Sel.Name == "Done") && isContext(p.TypeOf(sel.X)) {
					found = true
					return false
				}
			}
			for _, arg := range node.Args {
				if isContext(p.TypeOf(arg)) {
					found = true
					return false
				}
			}
		}
		return !found
	})
	return found
}

// calleeObject resolves a call's callee to its object (function or
// method), or nil for indirect calls.
func (p *Pass) calleeObject(call *ast.CallExpr) types.Object {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return p.ObjectOf(fun)
	case *ast.SelectorExpr:
		return p.ObjectOf(fun.Sel)
	}
	return nil
}

// isContext reports whether t is context.Context.
func isContext(t types.Type) bool {
	if t == nil {
		return false
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}
