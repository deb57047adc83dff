package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
)

// ForkSafetyAnalyzer enforces the per-task-slot contract of runtime.Fork:
// tasks are claimed from an atomic counter, so which goroutine runs which
// task is scheduling-dependent, and a forked closure may only write state
// that is disjoint per task. Concretely, inside a closure passed to Fork:
//
//   - writing a captured variable directly (`total += n`, `buf = append…`)
//     is a data race and, worse, makes the result depend on task
//     interleaving even under -race-clean atomics;
//   - writing an element of a captured slice/map is legal ONLY when the
//     index is derived from the task parameter (a per-task window:
//     `out[task] = …`, `flat[base+i] = …` with base computed from task).
//     An index computed purely from captured state writes a shared slot.
//
// Reads of captured state are unrestricted — inputs are shared read-only.
var ForkSafetyAnalyzer = &analysis.Analyzer{
	Name:     "repoforksafety",
	Doc:      "closures passed to runtime.Fork may only write per-task slots indexed by the task parameter",
	Run:      runForkSafety,
	Requires: []*analysis.Analyzer{inspect.Analyzer},
}

func init() {
	ForkSafetyAnalyzer.Flags.String("scope", dataPlaneScope,
		"comma-separated package paths to check (\"all\" for every package)")
}

func runForkSafety(pass *analysis.Pass) (interface{}, error) {
	scope := pass.Analyzer.Flags.Lookup("scope").Value.String()
	if !inScope(scope, pass.Pkg.Path()) {
		return nil, nil
	}
	ignores, report := passReporter(pass)

	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	ins.Preorder([]ast.Node{(*ast.CallExpr)(nil)}, func(n ast.Node) {
		call := n.(*ast.CallExpr)
		if isTestFile(pass.Fset, call.Pos()) {
			return
		}
		lit := forkClosure(pass, call)
		if lit == nil {
			return
		}
		checkForkClosure(pass, report, lit)
	})
	ignores.reportUnused(pass)
	return nil, nil
}

// forkClosure returns the func literal passed to a runtime.Fork-shaped
// call — a function named Fork with signature (int, func(int)) — or nil.
// Matching is by name and shape, not import identity, so fixtures can
// declare their own Fork.
func forkClosure(pass *analysis.Pass, call *ast.CallExpr) *ast.FuncLit {
	fn := calleeFunc(pass.TypesInfo, call)
	if fn == nil || fn.Name() != "Fork" || len(call.Args) != 2 {
		return nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Params().Len() != 2 {
		return nil
	}
	if b, ok := sig.Params().At(0).Type().(*types.Basic); !ok || b.Kind() != types.Int {
		return nil
	}
	inner, ok := sig.Params().At(1).Type().(*types.Signature)
	if !ok || inner.Params().Len() != 1 || inner.Results().Len() != 0 {
		return nil
	}
	lit, _ := call.Args[1].(*ast.FuncLit)
	return lit
}

// checkForkClosure reports shared-state writes inside a forked closure.
func checkForkClosure(pass *analysis.Pass, report func(token.Pos, string, ...interface{}), lit *ast.FuncLit) {
	// declaredInside reports whether obj is declared within the closure —
	// the task parameter or any local. Everything else is captured.
	declaredInside := func(obj types.Object) bool {
		return obj != nil && lit.Pos() <= obj.Pos() && obj.Pos() <= lit.End()
	}

	checkWrite := func(target ast.Expr, pos token.Pos) {
		switch dst := ast.Unparen(target).(type) {
		case *ast.Ident:
			obj := pass.TypesInfo.ObjectOf(dst)
			if obj == nil || declaredInside(obj) || obj.Name() == "_" {
				return
			}
			report(pos, "forked closure writes captured variable %s: task interleaving reaches the result; write into a per-task slot instead", dst.Name)
		case *ast.IndexExpr:
			root := rootIdent(dst.X)
			if root == nil {
				return
			}
			obj := pass.TypesInfo.ObjectOf(root)
			if obj == nil || declaredInside(obj) {
				return
			}
			// A captured slice/map element: legal iff the index is derived
			// from the task (mentions something declared in the closure).
			if mentionsLocal(pass, dst.Index, declaredInside) {
				return
			}
			report(pos, "forked closure writes %s at an index not derived from the task parameter: tasks share this slot; index a per-task window instead", lhsString(dst.X))
		case *ast.SelectorExpr:
			root := rootIdent(dst)
			if root == nil {
				return
			}
			obj := pass.TypesInfo.ObjectOf(root)
			if obj == nil || declaredInside(obj) {
				return
			}
			report(pos, "forked closure writes field %s of captured %s: tasks share this field", dst.Sel.Name, root.Name)
		case *ast.StarExpr:
			root := rootIdent(dst.X)
			if root == nil {
				return
			}
			obj := pass.TypesInfo.ObjectOf(root)
			if obj == nil || declaredInside(obj) {
				return
			}
			report(pos, "forked closure writes through captured pointer %s", root.Name)
		}
	}

	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range v.Lhs {
				checkWrite(lhs, v.Pos())
			}
		case *ast.IncDecStmt:
			checkWrite(v.X, v.Pos())
		case *ast.FuncLit:
			if v != lit {
				return false // a nested closure is that call's problem
			}
		}
		return true
	})
}

// mentionsLocal reports whether the expression mentions any object for
// which inside() is true — i.e. derives from closure-local state.
func mentionsLocal(pass *analysis.Pass, e ast.Expr, inside func(types.Object) bool) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := pass.TypesInfo.ObjectOf(id); inside(obj) {
				found = true
			}
		}
		return !found
	})
	return found
}
