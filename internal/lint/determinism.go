package lint

import (
	"go/ast"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
)

// DeterminismAnalyzer enforces the byte-determinism contract of the
// data-plane packages: results, charges, and rendered tables must be pure
// functions of (input, seed), identical at every data-plane width.
//
// It reports, in scoped packages (non-test files):
//
//   - a `range` over a map whose body emits (Emit/Append/AppendItem/Add…),
//     charges rounds (Charge/ChargeRound/…), or appends to an ordered
//     buffer declared outside the loop — map iteration order would leak
//     into an order-sensitive sink. Collect-then-sort loops are exempt:
//     appending to a slice that the same function later sorts is the
//     blessed idiom.
//   - any use of time.Now: wall-clock time on the deterministic path.
//   - any package-level math/rand function (Intn, Shuffle, …): the global
//     RNG is seeded per process, not per task. Constructing seeded
//     generators (rand.New, rand.NewSource) stays legal.
//   - any select with more than one communication clause: the runtime
//     picks a ready case pseudo-randomly.
var DeterminismAnalyzer = &analysis.Analyzer{
	Name:     "repodeterminism",
	Doc:      "flag map-iteration order, wall clock, global RNG, and select races on the deterministic data-plane path",
	Run:      runDeterminism,
	Requires: []*analysis.Analyzer{inspect.Analyzer},
}

func init() {
	DeterminismAnalyzer.Flags.String("scope", dataPlaneScope,
		"comma-separated package paths to check (\"all\" for every package)")
}

// orderSinkMethods are the method names that commit values in order: join
// emitters (Emit), columnar part and relation appends (Append, AppendItem,
// Add, AddAnnotated), and the table renderer (Add shares the name). A call
// to any of these inside a map range leaks iteration order.
var orderSinkMethods = map[string]bool{
	"Emit":          true,
	"Append":        true,
	"AppendItem":    true,
	"AppendColumns": true,
	"Add":           true,
	"AddAnnotated":  true,
	"WriteString":   true,
}

// chargeMethods are the cluster ledger's entry points: its writers
// (receive, newRound, bookExchange), the synthetic charges and the merges.
// Calling one inside a map range makes the round structure depend on
// iteration order.
var chargeMethods = map[string]bool{
	"receive":           true,
	"newRound":          true,
	"bookExchange":      true,
	"Charge":            true,
	"ChargeRound":       true,
	"ChargeInput":       true,
	"ChargeSpread":      true,
	"ChargeCoordinator": true,
	"ChargeDirectory":   true,
	"Merge":             true,
	"MergeGrid":         true,
}

func runDeterminism(pass *analysis.Pass) (interface{}, error) {
	scope := pass.Analyzer.Flags.Lookup("scope").Value.String()
	if !inScope(scope, pass.Pkg.Path()) {
		return nil, nil
	}
	ignores := buildIgnoreIndex(pass, pass.Analyzer.Name)
	report := func(pos ast.Node, format string, args ...interface{}) {
		if !ignores.suppressed(pass.Fset, pass.Analyzer.Name, pos.Pos()) {
			pass.Reportf(pos.Pos(), format, args...)
		}
	}

	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	nodeFilter := []ast.Node{
		(*ast.RangeStmt)(nil),
		(*ast.SelectorExpr)(nil),
		(*ast.SelectStmt)(nil),
		(*ast.FuncDecl)(nil),
		(*ast.FuncLit)(nil),
	}

	// funcBodies tracks the enclosing function body stack so the map-range
	// check can look for a later sort of the appended buffer.
	var funcBodies []*ast.BlockStmt

	ins.WithStack(nodeFilter, func(n ast.Node, push bool, stack []ast.Node) bool {
		if isTestFile(pass.Fset, n.Pos()) {
			return false
		}
		switch v := n.(type) {
		case *ast.FuncDecl:
			if push {
				funcBodies = append(funcBodies, v.Body)
			} else {
				funcBodies = funcBodies[:len(funcBodies)-1]
			}
		case *ast.FuncLit:
			if push {
				funcBodies = append(funcBodies, v.Body)
			} else {
				funcBodies = funcBodies[:len(funcBodies)-1]
			}
		case *ast.RangeStmt:
			if push {
				var body *ast.BlockStmt
				if len(funcBodies) > 0 {
					body = funcBodies[len(funcBodies)-1]
				}
				checkMapRange(pass, report, v, body)
			}
		case *ast.SelectorExpr:
			if push {
				checkNondetSource(pass, report, v)
			}
		case *ast.SelectStmt:
			if push && len(v.Body.List) > 1 {
				report(v, "select with %d communication clauses on the deterministic path: case choice is scheduling-dependent", len(v.Body.List))
			}
		}
		return true
	})
	ignores.reportUnused(pass)
	return nil, nil
}

// checkMapRange reports order-sensitive sinks inside a range over a map.
func checkMapRange(pass *analysis.Pass, report func(ast.Node, string, ...interface{}), rng *ast.RangeStmt, funcBody *ast.BlockStmt) {
	t := pass.TypesInfo.TypeOf(rng.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if isBuiltin(pass.TypesInfo, call, "append") {
			checkMapRangeAppend(pass, report, rng, call, funcBody)
			return true
		}
		fn := calleeFunc(pass.TypesInfo, call)
		if fn == nil || fn.Type().(*types.Signature).Recv() == nil {
			return true // plain functions and func-valued fields (semiring Add) are order-free
		}
		switch {
		case orderSinkMethods[fn.Name()]:
			report(call, "map iteration order reaches an ordered sink: %s called inside a range over %s", fn.Name(), types.TypeString(t, types.RelativeTo(pass.Pkg)))
		case chargeMethods[fn.Name()]:
			report(call, "round charge inside a range over a map: %s makes the charge order iteration-dependent", fn.Name())
		}
		return true
	})
}

// checkMapRangeAppend flags `buf = append(buf, …)` inside a map range when
// buf outlives the loop, unless the enclosing function later sorts buf
// (collect-then-sort is the deterministic idiom).
func checkMapRangeAppend(pass *analysis.Pass, report func(ast.Node, string, ...interface{}), rng *ast.RangeStmt, call *ast.CallExpr, funcBody *ast.BlockStmt) {
	if len(call.Args) == 0 {
		return
	}
	id := rootIdent(call.Args[0])
	if id == nil {
		return
	}
	obj := pass.TypesInfo.Uses[id]
	if obj == nil || obj.Parent() == nil {
		return
	}
	// Declared inside the loop body → dies with the iteration, order-free.
	if rng.Body.Pos() <= obj.Pos() && obj.Pos() <= rng.Body.End() {
		return
	}
	if funcBody != nil && sortedLater(pass, funcBody, obj) {
		return
	}
	report(call, "append to %s inside a range over a map: element order follows map iteration; collect and sort, or iterate a sorted key slice", id.Name)
}

// sortedLater reports whether the function body passes obj to a sorting
// function (sort.Strings, sort.Slice, slices.Sort, …) after collecting it.
func sortedLater(pass *analysis.Pass, body *ast.BlockStmt, obj types.Object) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		fn := calleeFunc(pass.TypesInfo, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		if pkg := fn.Pkg().Path(); pkg != "sort" && pkg != "slices" {
			return true
		}
		if usesObject(pass.TypesInfo, call.Args[0], obj) {
			found = true
		}
		return !found
	})
	return found
}

// checkNondetSource flags time.Now and package-level math/rand functions.
func checkNondetSource(pass *analysis.Pass, report func(ast.Node, string, ...interface{}), sel *ast.SelectorExpr) {
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	if fn.Type().(*types.Signature).Recv() != nil {
		return // methods (e.g. on a seeded *rand.Rand) are deterministic
	}
	switch fn.Pkg().Path() {
	case "time":
		if fn.Name() == "Now" {
			report(sel, "time.Now on the deterministic path: results must be pure functions of (input, seed)")
		}
	case "math/rand", "math/rand/v2":
		if fn.Name() == "New" || fn.Name() == "NewSource" || fn.Name() == "NewZipf" || fn.Name() == "NewPCG" || fn.Name() == "NewChaCha8" {
			return // constructing a seeded generator is the blessed pattern
		}
		report(sel, "global math/rand.%s on the deterministic path: derive a seeded generator (mpc.NewChildRng) instead", fn.Name())
	}
}
