// Package lint is the repo's custom static-analysis suite: four
// analyzers that turn the codebase's core invariants — deterministic
// result tables, bounded cancellation latency, no wall-clock/randomness
// in mined results, no escaping pooled scratch —
// from "property-tested" into "impossible to merge broken". The
// cmd/twovet multichecker runs them over the module in CI, next to vet
// and staticcheck.
//
// The analyzer/pass shape deliberately mirrors
// golang.org/x/tools/go/analysis so the analyzers could be ported to
// the real driver verbatim. The x/tools dependency itself is not
// vendored here — the module is dependency-free by policy — so this
// package carries the minimal stdlib-only driver the suite needs:
// loading via `go list`, type checking via go/types with the source
// importer, and `// want`-comment testing via the sibling linttest
// package.
//
// # Suppressing a finding
//
// Every analyzer honours a justification directive placed on the
// flagged line or on the line directly above it:
//
//	//lint:<key> <reason>
//
// where <key> is the analyzer's directive key (e.g.
// nondeterministic-ok, ctxprobe-ok, wallclock-ok, scratchescape-ok). The reason is mandatory by convention: the
// directive documents why the invariant holds at this site even though
// the analyzer cannot prove it.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer is one static check. The shape mirrors
// golang.org/x/tools/go/analysis.Analyzer.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in -list output.
	Name string
	// Doc is a one-paragraph description: the invariant the analyzer
	// guards and the escape-hatch directive it honours.
	Doc string
	// Directive is the //lint: key that suppresses this analyzer's
	// findings at a site (empty means the analyzer has no escape hatch).
	Directive string
	// Run reports findings on one package via pass.Reportf.
	Run func(*Pass) error
}

// A Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// A Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	diags *[]Diagnostic
	// directives maps filename -> line -> set of //lint: keys that
	// apply to that line (a directive covers its own line and the line
	// below it, so it can trail the flagged code or sit above it).
	directives map[string]map[int]map[string]bool
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of e, or nil when unknown.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	if tv, ok := p.Info.Types[e]; ok {
		return tv.Type
	}
	if id, ok := e.(*ast.Ident); ok {
		if obj := p.Info.ObjectOf(id); obj != nil {
			return obj.Type()
		}
	}
	return nil
}

// ObjectOf resolves an identifier to its object, or nil.
func (p *Pass) ObjectOf(id *ast.Ident) types.Object { return p.Info.ObjectOf(id) }

// Suppressed reports whether a //lint:<key> directive covers pos —
// i.e. the directive comment is on the same line as pos or on the line
// directly above it.
func (p *Pass) Suppressed(pos token.Pos, key string) bool {
	if p.directives == nil {
		p.directives = map[string]map[int]map[string]bool{}
		for _, f := range p.Files {
			fname := p.Fset.Position(f.Pos()).Filename
			lines := p.directives[fname]
			if lines == nil {
				lines = map[int]map[string]bool{}
				p.directives[fname] = lines
			}
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text, ok := strings.CutPrefix(c.Text, "//lint:")
					if !ok {
						continue
					}
					fields := strings.Fields(text)
					if len(fields) == 0 {
						continue
					}
					line := p.Fset.Position(c.Pos()).Line
					for _, l := range [2]int{line, line + 1} {
						if lines[l] == nil {
							lines[l] = map[string]bool{}
						}
						lines[l][fields[0]] = true
					}
				}
			}
		}
	}
	at := p.Fset.Position(pos)
	return p.directives[at.Filename][at.Line][key]
}

// report is the shared finding-or-suppress entry used by the
// analyzers: it drops the diagnostic when the analyzer's directive
// covers pos.
func (p *Pass) report(pos token.Pos, format string, args ...any) {
	if p.Analyzer.Directive != "" && p.Suppressed(pos, p.Analyzer.Directive) {
		return
	}
	p.Reportf(pos, format, args...)
}

// Run executes the analyzers over the loaded packages and returns all
// findings sorted by position.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Syntax,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				diags:    &diags,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	sort.Slice(diags, func(a, b int) bool {
		da, db := diags[a], diags[b]
		if da.Pos.Filename != db.Pos.Filename {
			return da.Pos.Filename < db.Pos.Filename
		}
		if da.Pos.Line != db.Pos.Line {
			return da.Pos.Line < db.Pos.Line
		}
		if da.Pos.Column != db.Pos.Column {
			return da.Pos.Column < db.Pos.Column
		}
		return da.Analyzer < db.Analyzer
	})
	return diags, nil
}

// inModule reports whether a package path belongs to this module.
// Analyzer scopes treat every non-module path (ad-hoc testdata
// fixtures) as in scope, so the testdata packages exercise the checks
// without carrying module-path prefixes.
func inModule(path string) bool {
	return path == modulePath || strings.HasPrefix(path, modulePath+"/")
}

// modulePath is the module this suite lints. The scopes below are
// repo-specific by design: the analyzers encode this codebase's
// invariants, not generic Go style.
const modulePath = "twoview"

// hasScope reports whether path falls under any of the given
// module-relative scopes ("" means exactly the module root package —
// the facade — with no subtree).
func hasScope(path string, scopes ...string) bool {
	if !inModule(path) {
		return true // ad-hoc fixture package: always in scope
	}
	for _, s := range scopes {
		if s == "" {
			if path == modulePath {
				return true
			}
			continue
		}
		full := modulePath + "/" + s
		if path == full || strings.HasPrefix(path, full+"/") {
			return true
		}
	}
	return false
}
