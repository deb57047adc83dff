// Package lint is the repository's static-analysis suite: nine custom
// go/analysis analyzers that enforce, at compile time, the contracts the
// runtime test fences (width sweeps, fuzz parity, -race, AllocsPerRun
// ceilings) can only sample:
//
//	determinism    no map-iteration order, wall clock, global RNG, or
//	               select race may reach an emitter, an ordered buffer,
//	               or a round charge in a data-plane package
//	charging       exported primitives that communicate must charge the
//	               cluster on every return path, and a Charge call must
//	               never be skipped behind a non-emptiness guard
//	poollifecycle  pooled buffers (every mpc.Pool Get: record sets, sort
//	               scratch, exchange task scratch, index arrays, head
//	               logs) are released on every path and never escape
//	               their owner
//	forksafety     closures handed to runtime.Fork must not write shared
//	               captured state outside a per-task window
//	allochygiene   functions under an AllocsPerRun ceiling, marked
//	               lint:alloc-ceiling, must not allocate inside loops
//	roundcost      every function gets a static round-cost class (zero,
//	               const, log, loop, unknown) composed inter-procedurally
//	               from exported facts and checked against //lint:rounds
//	               declarations
//	repobound      every registered algorithm declares its round class,
//	               which its run body's static classification and its
//	               bound row must respect
//	loadcost       every function gets a static load class (zero, const,
//	               perP, frac, linear, unknown) from the arithmetic shape
//	               of its cluster charge arguments, composed
//	               inter-procedurally from exported facts and checked
//	               against //lint:load declarations
//	repoload       every registered algorithm declares its load class,
//	               which its run body's static classification and its
//	               bound row must respect
//
// The suite runs through cmd/repolint (`go vet -vettool`), so every
// package — including future ones — inherits the contracts for free.
// A finding that is a vetted false positive is suppressed in place with
//
//	//lint:ignore <analyzer> <reason>
//
// on the flagged line or the line above; the reason is mandatory and a
// directive without one never suppresses anything. A directive that
// suppresses nothing is itself reported, so stale escape hatches cannot
// accumulate.
package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
)

// Analyzers returns the full suite in a stable order; cmd/repolint and the
// tests load exactly this set.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		DeterminismAnalyzer,
		ChargingAnalyzer,
		PoolLifecycleAnalyzer,
		ForkSafetyAnalyzer,
		AllocHygieneAnalyzer,
		RoundCostAnalyzer,
		RepoBoundAnalyzer,
		LoadCostAnalyzer,
		RepoLoadAnalyzer,
	}
}

// dataPlaneScope is the default package scope of the scoped analyzers: the
// packages whose emissions, charges, and buffers are covered by the
// byte-determinism and charging contracts documented in DESIGN.md.
const dataPlaneScope = "repro/internal/mpc,repro/internal/primitives,repro/internal/core,repro/internal/engine,repro/internal/harness"

// inScope reports whether pkgPath is covered by the comma-separated scope
// list. "all" covers everything (the fixture tests use it).
func inScope(scope, pkgPath string) bool {
	for _, s := range strings.Split(scope, ",") {
		s = strings.TrimSpace(s)
		if s == "all" || s == pkgPath {
			return true
		}
	}
	return false
}

// isTestFile reports whether pos lies in a _test.go file.
func isTestFile(fset *token.FileSet, pos token.Pos) bool {
	return strings.HasSuffix(fset.Position(pos).Filename, "_test.go")
}

// ignoreIndex records the //lint:ignore directives of one package: for each
// analyzer, the file lines on which its diagnostics are suppressed. A
// directive suppresses its own line and the line below, so it can sit on
// the flagged line or on its own line directly above. Each directive
// tracks whether it ever suppressed anything: a stale escape hatch — one
// that covers no diagnostic — is itself reported at the end of the run.
type ignoreIndex struct {
	self     string
	covered  map[string]map[lineKey]*ignoreDirective // analyzer name → covered lines
	selfDirs []*ignoreDirective                      // directives naming the running analyzer
}

type lineKey struct {
	file string
	line int
}

type ignoreDirective struct {
	pos  token.Pos
	used bool
}

// buildIgnoreIndex scans the package's comments for lint:ignore directives
// and reports malformed ones (no analyzer, or no reason) that mention the
// running analyzer — a reasonless suppression is itself a violation.
func buildIgnoreIndex(pass *analysis.Pass, self string) *ignoreIndex {
	idx := &ignoreIndex{self: self, covered: map[string]map[lineKey]*ignoreDirective{}}
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//lint:ignore")
				if !ok {
					continue
				}
				fields := strings.Fields(text)
				if len(fields) == 0 {
					continue
				}
				name := fields[0]
				if len(fields) < 2 {
					if name == self {
						pass.Reportf(c.Pos(), "lint:ignore %s directive needs a reason", name)
					}
					continue
				}
				p := pass.Fset.Position(c.Pos())
				d := &ignoreDirective{pos: c.Pos()}
				m := idx.covered[name]
				if m == nil {
					m = map[lineKey]*ignoreDirective{}
					idx.covered[name] = m
				}
				m[lineKey{p.Filename, p.Line}] = d
				m[lineKey{p.Filename, p.Line + 1}] = d
				if name == self {
					idx.selfDirs = append(idx.selfDirs, d)
				}
			}
		}
	}
	return idx
}

// passReporter returns pass.Reportf filtered through the package's
// //lint:ignore directives for the running analyzer.
func passReporter(pass *analysis.Pass) (*ignoreIndex, func(pos token.Pos, format string, args ...interface{})) {
	ignores := buildIgnoreIndex(pass, pass.Analyzer.Name)
	return ignores, func(pos token.Pos, format string, args ...interface{}) {
		if !ignores.suppressed(pass.Fset, pass.Analyzer.Name, pos) {
			pass.Reportf(pos, format, args...)
		}
	}
}

// suppressed reports whether a diagnostic of the named analyzer at pos is
// covered by a lint:ignore directive, marking the directive as used.
func (idx *ignoreIndex) suppressed(fset *token.FileSet, name string, pos token.Pos) bool {
	p := fset.Position(pos)
	d := idx.covered[name][lineKey{p.Filename, p.Line}]
	if d == nil {
		return false
	}
	d.used = true
	return true
}

// reportUnused reports every directive naming the running analyzer that
// suppressed no diagnostic: a stale escape hatch is a violation, so vetted
// exceptions can't outlive the code they excused. Analyzers call it at the
// end of their run, once every potential diagnostic has been tested.
func (idx *ignoreIndex) reportUnused(pass *analysis.Pass) {
	for _, d := range idx.selfDirs {
		if !d.used {
			pass.Reportf(d.pos, "lint:ignore %s suppresses no diagnostic; remove the stale directive", idx.self)
		}
	}
}

// calleeFunc resolves a call expression to the *types.Func it invokes
// (package function or method), or nil for builtins, conversions, and
// calls through function-typed variables or struct fields.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.Uses[fn]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fn]; ok {
			obj = sel.Obj()
		} else {
			obj = info.Uses[fn.Sel] // package-qualified call
		}
	}
	f, _ := obj.(*types.Func)
	return f
}

// isBuiltin reports whether the call invokes the named builtin.
func isBuiltin(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == name
}

// rootIdent walks to the base identifier of expressions like x.F[i].G,
// returning nil when the base is not a plain identifier.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch v := ast.Unparen(e).(type) {
		case *ast.Ident:
			return v
		case *ast.SelectorExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.SliceExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		default:
			return nil
		}
	}
}

// usesObject reports whether the expression tree mentions the object.
func usesObject(info *types.Info, e ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && info.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}

// isZeroLiteral reports whether e is the integer literal 0.
func isZeroLiteral(e ast.Expr) bool {
	lit, ok := ast.Unparen(e).(*ast.BasicLit)
	return ok && lit.Kind == token.INT && lit.Value == "0"
}
