package lint

import (
	"go/ast"
	"go/token"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/ctrlflow"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
	"golang.org/x/tools/go/cfg"
)

// ChargingAnalyzer enforces the charging contract: every communication step
// is charged to the cluster, and the round structure never depends on the
// data beyond its logical shape.
//
// Rule 1 — exported primitives charge on every return path. An exported
// function in a scoped package that performs any communication (a routed
// exchange — ShuffleByKey, ReplicateAppend, GatherTo, MoveTo, … — a sorted
// chop, or an explicit Charge) must perform one on EVERY path from entry
// to return. A return reachable without any communicating call means some
// input reaches the caller uncharged. The one blessed exception is the
// trivially-empty early-out: a return dominated by an emptiness guard
// (`if x.Size() == 0`, `if len(xs) == 0`) may skip the rounds entirely,
// because a statically-empty sub-query has no communication to charge.
//
// Rule 2 — charges are not skipped behind non-emptiness guards. A call to
// Charge/ChargeRound/ChargeInput/chargeCoordinatorExchange nested under a
// positivity test (`if n > 0 { c.ChargeRound(...) }`) silently deletes a
// round exactly when the input is empty, so the round count stops being a
// function of the query's logical structure. Charge unconditionally, or
// early-out the whole primitive behind the emptiness guard.
var ChargingAnalyzer = &analysis.Analyzer{
	Name:     "repocharging",
	Doc:      "exported communicating primitives must charge the cluster on every return path, never behind a non-emptiness guard",
	Run:      runCharging,
	Requires: []*analysis.Analyzer{inspect.Analyzer, ctrlflow.Analyzer},
}

func init() {
	ChargingAnalyzer.Flags.String("scope", "repro/internal/primitives",
		"comma-separated package paths to check (\"all\" for every package)")
}

// commFuncs are the communicating entry points: every one charges the
// cluster internally (routes open a round, chops charge chunk loads), so a
// call to any of them satisfies rule 1 — and a path with none of them has
// communicated nothing and charged nothing.
var commFuncs = map[string]bool{
	// routed exchanges on mpc.Dist
	"route": true, "routeTasks": true,
	"ShuffleByKey": true, "ShuffleByAttrs": true,
	"ReplicateBy": true, "ReplicateAppend": true, "Broadcast": true, "GatherTo": true, "MoveTo": true,
	// sort-and-chop plus the explicit charges
	"sortAndChop": true, "chopBounds": true,
	"Charge": true, "ChargeRound": true, "ChargeInput": true,
	"chargeCoordinatorExchange": true,
}

// chargeOnlyFuncs are the explicit synthetic charges rule 2 guards.
var chargeOnlyFuncs = map[string]bool{
	"Charge": true, "ChargeRound": true, "ChargeInput": true,
	"chargeCoordinatorExchange": true,
}

func runCharging(pass *analysis.Pass) (interface{}, error) {
	scope := pass.Analyzer.Flags.Lookup("scope").Value.String()
	if !inScope(scope, pass.Pkg.Path()) {
		return nil, nil
	}
	ignores, report := passReporter(pass)

	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	cfgs := pass.ResultOf[ctrlflow.Analyzer].(*ctrlflow.CFGs)

	ins.Preorder([]ast.Node{(*ast.FuncDecl)(nil)}, func(n ast.Node) {
		fd := n.(*ast.FuncDecl)
		if fd.Body == nil || isTestFile(pass.Fset, fd.Pos()) {
			return
		}
		checkChargeGuards(pass, report, fd)
		if !fd.Name.IsExported() {
			return
		}
		g := cfgs.FuncDecl(fd)
		if g == nil {
			return
		}
		checkReturnPaths(pass, report, fd, g)
	})
	ignores.reportUnused(pass)
	return nil, nil
}

// isCommCall reports whether the call invokes a communicating entry point.
func isCommCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	fn := calleeFunc(pass.TypesInfo, call)
	return fn != nil && commFuncs[fn.Name()]
}

// checkReturnPaths walks the CFG of an exported function that communicates
// and reports every return reachable from entry without passing a
// communicating call, excepting emptiness-guarded early-outs.
func checkReturnPaths(pass *analysis.Pass, report func(token.Pos, string, ...interface{}), fd *ast.FuncDecl, g *cfg.CFG) {
	// Does the function communicate at all? (Scans the whole body,
	// including closures: a closure charging on behalf of the function
	// still marks it as a communicating primitive.)
	communicates := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && isCommCall(pass, call) {
			communicates = true
		}
		return !communicates
	})
	if !communicates {
		return
	}

	exempt := emptyGuardedReturns(pass, fd)

	// blockCharges reports whether block b contains a communicating call
	// at statement granularity (closures inside a statement do not count:
	// a charge inside a deferred or forked closure is not sequenced on
	// this path).
	blockCharges := func(b *cfg.Block) bool {
		for _, n := range b.Nodes {
			charged := false
			ast.Inspect(n, func(m ast.Node) bool {
				switch v := m.(type) {
				case *ast.FuncLit:
					return false
				case *ast.CallExpr:
					if isCommCall(pass, v) {
						charged = true
					}
				}
				return !charged
			})
			if charged {
				return true
			}
		}
		return false
	}

	// DFS from entry, refusing to continue past a charging block: every
	// block reached is reachable with zero communication so far.
	reached := make(map[*cfg.Block]bool)
	var walk func(b *cfg.Block)
	walk = func(b *cfg.Block) {
		if reached[b] {
			return
		}
		reached[b] = true
		if blockCharges(b) {
			return
		}
		for _, s := range b.Succs {
			walk(s)
		}
	}
	if len(g.Blocks) == 0 {
		return
	}
	walk(g.Blocks[0])

	for _, b := range g.Blocks {
		if !reached[b] || blockCharges(b) {
			continue
		}
		for _, n := range b.Nodes {
			ret, ok := n.(*ast.ReturnStmt)
			if !ok || exempt[ret] {
				continue
			}
			// The CFG synthesizes a ReturnStmt at the closing brace for an
			// implicit return; falling off the end of a void function is
			// not an early-out (rule 2 still guards conditional charges).
			if ret.Pos() == fd.Body.Rbrace {
				continue
			}
			report(ret.Pos(), "%s communicates but returns without charging the cluster on this path; charge it or guard the early-out with an emptiness check", fd.Name.Name)
		}
	}
}

// emptyGuardedReturns collects the returns exempt from rule 1: those
// inside an if-branch taken exactly when an input is empty — a zero
// comparison (== 0, <= 0, < 1) of a len(...), .Size(), or .len() value,
// or the inverted test's else-branch.
func emptyGuardedReturns(pass *analysis.Pass, fd *ast.FuncDecl) map[*ast.ReturnStmt]bool {
	exempt := map[*ast.ReturnStmt]bool{}
	markReturns := func(n ast.Node) {
		if n == nil {
			return
		}
		ast.Inspect(n, func(m ast.Node) bool {
			if ret, ok := m.(*ast.ReturnStmt); ok {
				exempt[ret] = true
			}
			return true
		})
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		ifs, ok := n.(*ast.IfStmt)
		if !ok {
			return true
		}
		switch emptinessTest(pass, ifs.Cond) {
		case testIsEmpty:
			markReturns(ifs.Body)
		case testIsNonEmpty:
			markReturns(ifs.Else)
		}
		return true
	})
	return exempt
}

type emptiness int

const (
	testNeither emptiness = iota
	testIsEmpty
	testIsNonEmpty
)

// emptinessTest classifies a condition as an emptiness or non-emptiness
// test on a size-like value.
func emptinessTest(pass *analysis.Pass, cond ast.Expr) emptiness {
	be, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok {
		return testNeither
	}
	size, zero := be.X, be.Y
	op := be.Op
	if isZeroLiteral(be.X) {
		size, zero = be.Y, be.X
		// normalize: put the size on the left
		switch op {
		case token.LSS:
			op = token.GTR
		case token.GTR:
			op = token.LSS
		case token.LEQ:
			op = token.GEQ
		case token.GEQ:
			op = token.LEQ
		}
	}
	if !isZeroLiteral(zero) || !isSizeExpr(pass, size) {
		return testNeither
	}
	switch op {
	case token.EQL, token.LEQ: // size == 0, size <= 0
		return testIsEmpty
	case token.NEQ, token.GTR: // size != 0, size > 0
		return testIsNonEmpty
	}
	return testNeither
}

// isSizeExpr reports whether e is a size-like value: len(...), a call to a
// method named Size/Len/len, or an int-typed identifier (a counted total).
func isSizeExpr(pass *analysis.Pass, e ast.Expr) bool {
	switch v := ast.Unparen(e).(type) {
	case *ast.CallExpr:
		if isBuiltin(pass.TypesInfo, v, "len") || isBuiltin(pass.TypesInfo, v, "cap") {
			return true
		}
		fn := calleeFunc(pass.TypesInfo, v)
		if fn == nil {
			return false
		}
		switch fn.Name() {
		case "Size", "Len", "len", "N", "TotalCount":
			return true
		}
	case *ast.Ident:
		return true // a counted total held in a variable
	case *ast.SelectorExpr:
		return true // a counted total held in a field
	}
	return false
}

// checkChargeGuards implements rule 2 for every function (exported or
// not): an explicit charge nested under a non-emptiness guard is reported.
func checkChargeGuards(pass *analysis.Pass, report func(token.Pos, string, ...interface{}), fd *ast.FuncDecl) {
	// Stack of open if-branches classified as non-emptiness-guarded.
	type frame struct {
		n       ast.Node // the guarded branch block
		guarded bool
	}
	var stack []frame
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		ast.Inspect(n, func(m ast.Node) bool {
			switch v := m.(type) {
			case *ast.IfStmt:
				guardedThen := emptinessTest(pass, v.Cond) == testIsNonEmpty
				if v.Init != nil {
					walk(v.Init)
				}
				walk(v.Cond)
				stack = append(stack, frame{n: v.Body, guarded: guardedThen})
				walk(v.Body)
				stack = stack[:len(stack)-1]
				if v.Else != nil {
					stack = append(stack, frame{n: v.Else, guarded: emptinessTest(pass, v.Cond) == testIsEmpty})
					walk(v.Else)
					stack = stack[:len(stack)-1]
				}
				return false
			case *ast.CallExpr:
				fn := calleeFunc(pass.TypesInfo, v)
				if fn == nil || !chargeOnlyFuncs[fn.Name()] {
					return true
				}
				for _, f := range stack {
					if f.guarded {
						report(v.Pos(), "%s is skipped when the input is empty: the round count must depend on the query's structure, not the data; charge unconditionally or early-out the whole primitive", fn.Name())
						return true
					}
				}
			}
			return true
		})
	}
	walk(fd.Body)
}
