package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
)

// AllocHygieneAnalyzer guards the AllocsPerRun ceilings. Functions on the
// hot path carry a
//
//	//lint:alloc-ceiling
//
// marker in their doc comment, declaring that an allocation-regression
// test holds their steady-state allocation count to a fixed ceiling (the
// pooled-scratch design makes it near zero). Inside a marked function the
// analyzer flags any allocation that scales with the data — make, new, or
// a slice/map composite literal lexically inside a for/range loop (nested
// closures included: forked closures run their loops per task). Per-call
// setup allocations outside loops are fine; the ceilings already price
// them in.
//
// The runtime test and the analyzer fence the same invariant from both
// sides: AllocsPerRun catches a regression on the inputs it runs, the
// marker catches it on every input shape at compile time.
//
// Marked or not, no function of a data-plane package may build a key
// string: a call to relation.KeyAt, EncodeTuple or EncodeValues allocates
// one string per row it is asked about, and every use such a key had —
// grouping, deduplicating, indexing — is served by value through
// mpc.RowIndex over the flat buffers. The sequential oracle, which shares
// no code with the kernels it checks, suppresses the finding in place.
var AllocHygieneAnalyzer = &analysis.Analyzer{
	Name:     "repoallochygiene",
	Doc:      "functions marked lint:alloc-ceiling must not allocate inside loops, and data-plane code must not build key strings",
	Run:      runAllocHygiene,
	Requires: []*analysis.Analyzer{inspect.Analyzer},
}

func init() {
	AllocHygieneAnalyzer.Flags.String("scope", dataPlaneScope,
		"comma-separated package paths to check (\"all\" for every package)")
}

const allocCeilingMarker = "lint:alloc-ceiling"

func runAllocHygiene(pass *analysis.Pass) (interface{}, error) {
	scope := pass.Analyzer.Flags.Lookup("scope").Value.String()
	if !inScope(scope, pass.Pkg.Path()) {
		return nil, nil
	}
	ignores, report := passReporter(pass)

	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	ins.Preorder([]ast.Node{(*ast.FuncDecl)(nil)}, func(n ast.Node) {
		fd := n.(*ast.FuncDecl)
		if fd.Body == nil || fd.Doc == nil || isTestFile(pass.Fset, fd.Pos()) {
			return
		}
		// Doc.Text() strips directive-style comments, so scan the raw list.
		marked := false
		for _, c := range fd.Doc.List {
			if strings.Contains(c.Text, allocCeilingMarker) {
				marked = true
			}
		}
		if !marked {
			return
		}
		checkAllocsInLoops(pass, report, fd)
	})
	ins.Preorder([]ast.Node{(*ast.CallExpr)(nil)}, func(n ast.Node) {
		call := n.(*ast.CallExpr)
		if fn := calleeFunc(pass.TypesInfo, call); isKeyEncoder(fn) && !isTestFile(pass.Fset, call.Pos()) {
			report(call.Pos(), "%s builds a key string per call in a data-plane package: address rows by value through mpc.RowIndex", fn.Name())
		}
	})
	ignores.reportUnused(pass)
	return nil, nil
}

// isKeyEncoder reports whether fn is one of the relation package's key
// encoders. Matching is by name and shape — KeyAt, EncodeTuple or
// EncodeValues returning a single string — not import identity, so
// fixtures can declare their own.
func isKeyEncoder(fn *types.Func) bool {
	if fn == nil {
		return false
	}
	switch fn.Name() {
	case "KeyAt", "EncodeTuple", "EncodeValues":
	default:
		return false
	}
	res := fn.Type().(*types.Signature).Results()
	if res.Len() != 1 {
		return false
	}
	b, ok := res.At(0).Type().(*types.Basic)
	return ok && b.Kind() == types.String
}

// checkAllocsInLoops walks the marked function, tracking loop depth, and
// reports allocation expressions at depth ≥ 1. Closure bodies keep the
// enclosing depth: a closure created in a loop (or run per task by Fork)
// multiplies its own allocations the same way.
func checkAllocsInLoops(pass *analysis.Pass, report func(token.Pos, string, ...interface{}), fd *ast.FuncDecl) {
	name := fd.Name.Name
	var depth int
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		ast.Inspect(n, func(m ast.Node) bool {
			switch v := m.(type) {
			case *ast.ForStmt:
				if v.Init != nil {
					walk(v.Init)
				}
				if v.Cond != nil {
					walk(v.Cond)
				}
				if v.Post != nil {
					walk(v.Post)
				}
				depth++
				walk(v.Body)
				depth--
				return false
			case *ast.RangeStmt:
				walk(v.X)
				depth++
				walk(v.Body)
				depth--
				return false
			case *ast.CallExpr:
				if depth == 0 {
					return true
				}
				if isBuiltin(pass.TypesInfo, v, "make") {
					report(v.Pos(), "make inside a loop in %s, which is under an AllocsPerRun ceiling: hoist it, or draw from a pool", name)
				}
				if isBuiltin(pass.TypesInfo, v, "new") {
					report(v.Pos(), "new inside a loop in %s, which is under an AllocsPerRun ceiling: hoist it, or draw from a pool", name)
				}
			case *ast.CompositeLit:
				if depth == 0 {
					return true
				}
				t := pass.TypesInfo.TypeOf(v)
				if t == nil {
					return true
				}
				switch t.Underlying().(type) {
				case *types.Slice, *types.Map:
					report(v.Pos(), "slice/map literal inside a loop in %s, which is under an AllocsPerRun ceiling: hoist it, or draw from a pool", name)
				}
			}
			return true
		})
	}
	walk(fd.Body)
}
