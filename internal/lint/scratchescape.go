package lint

import (
	"go/ast"
	"go/types"
)

// Scratchescape guards the pooled-scratch contract shared by
// core.ParallelOptions.getScratch (a Session's free list, or
// defaultScratchPool without one), core.Translator.getScratch and any
// future pool: a value borrowed from a pool is valid only until the
// matching Put, so storing it into a struct field, a composite
// literal, a package variable, or returning it hands callers a buffer
// that a concurrent borrower will overwrite. That failure mode is a
// data race that -race only catches when two borrowers actually
// collide, which planted tests rarely arrange; the analyzer rejects
// the escape statically.
//
// Borrow sources are calls to sync.Pool.Get (through any type
// assertion) and calls to functions or methods named getScratch — the
// repo's blessed borrow-wrapper name. The wrappers themselves
// (functions named getScratch) are exempt: returning the fresh borrow
// is their job.
var Scratchescape = &Analyzer{
	Name:      "scratchescape",
	Directive: "scratchescape-ok",
	Doc: "forbid storing sync.Pool/getScratch borrows into struct fields, " +
		"composite literals, package variables, or returning them: pooled " +
		"scratch is only valid until the matching Put. Deliberate ownership " +
		"transfers carry //lint:scratchescape-ok <reason>.",
	Run: runScratchescape,
}

func runScratchescape(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fd.Name.Name == "getScratch" {
				continue // the borrow wrapper itself must return the borrow
			}
			pass.checkScratchFunc(fd)
		}
	}
	return nil
}

func (p *Pass) checkScratchFunc(fd *ast.FuncDecl) {
	// Collect variables assigned from a borrow source.
	borrowed := map[*types.Var]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return true
		}
		if !p.isBorrowCall(as.Rhs[0]) {
			return true
		}
		if id, ok := as.Lhs[0].(*ast.Ident); ok {
			if v, ok := p.ObjectOf(id).(*types.Var); ok {
				borrowed[v] = true
			}
		}
		return true
	})
	if len(borrowed) == 0 {
		return
	}

	isBorrowedIdent := func(e ast.Expr) (*types.Var, bool) {
		id, ok := e.(*ast.Ident)
		if !ok {
			return nil, false
		}
		v, ok := p.ObjectOf(id).(*types.Var)
		if !ok || !borrowed[v] {
			return nil, false
		}
		return v, true
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.ReturnStmt:
			for _, res := range node.Results {
				if v, ok := isBorrowedIdent(res); ok {
					p.report(res.Pos(),
						"%s is borrowed from a scratch pool and must not be returned; "+
							"copy the data out or annotate //lint:scratchescape-ok <reason>", v.Name())
				}
			}
		case *ast.AssignStmt:
			if len(node.Lhs) != len(node.Rhs) {
				return true
			}
			for i := range node.Lhs {
				v, ok := isBorrowedIdent(node.Rhs[i])
				if !ok {
					continue
				}
				switch lhs := node.Lhs[i].(type) {
				case *ast.SelectorExpr:
					p.report(node.Rhs[i].Pos(),
						"%s is borrowed from a scratch pool and must not be stored into a field; "+
							"the pool will hand it to another borrower after Put", v.Name())
				case *ast.Ident:
					if obj, ok := p.ObjectOf(lhs).(*types.Var); ok && obj.Parent() == p.Pkg.Scope() {
						p.report(node.Rhs[i].Pos(),
							"%s is borrowed from a scratch pool and must not be stored into package variable %s",
							v.Name(), obj.Name())
					}
				}
			}
		case *ast.CompositeLit:
			for _, elt := range node.Elts {
				val := elt
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					val = kv.Value
				}
				if v, ok := isBorrowedIdent(val); ok {
					p.report(val.Pos(),
						"%s is borrowed from a scratch pool and must not be stored into a composite literal", v.Name())
				}
			}
		}
		return true
	})
}

// isBorrowCall matches `pool.Get()` on a sync.Pool (through any
// unwrapping type assertion) and calls to get-scratch wrappers.
func (p *Pass) isBorrowCall(e ast.Expr) bool {
	if ta, ok := e.(*ast.TypeAssertExpr); ok {
		e = ta.X
	}
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	obj := p.calleeObject(call)
	if obj == nil {
		return false
	}
	if obj.Name() == "getScratch" {
		return true
	}
	if obj.Name() == "Get" && obj.Pkg() != nil && obj.Pkg().Path() == "sync" {
		if fn, ok := obj.(*types.Func); ok {
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
				return true // sync.Pool.Get (sync has no other Get method)
			}
		}
	}
	return false
}
