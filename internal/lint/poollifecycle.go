package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
)

// PoolLifecycleAnalyzer enforces the buffer-recycling contract: a buffer
// acquired from a pool (poolPairs: any mpc.Pool's Get, and getRecCols and
// getSortScratch, which wrap one) is owned by the acquiring function. It
// must be released with the matching put before the function returns, also
// on a return that comes before the release in the body, and it must never
// escape the function — not via a return value, not via a global or a
// foreign struct field, because a pooled buffer that outlives its owner
// aliases whatever the pool hands out next. Every acquisition is checked,
// wherever it is written; the accessors' own bodies are the pool's, and a
// new wrapper is reported until it joins poolPairs.
//
// Two shapes are blessed:
//
//   - handing the buffer to a carrier: assignment into a field of a local
//     value, or a composite literal, whose (same-package) type has a method
//     that calls a put — the exchange plan's task scratch, released by
//     plan.release(), and RowIndex's arrays, released by its Release.
//   - releasing through a closure: a func literal in the same function
//     that puts the buffer (`release := func() { putRecCols(rc) }`; no
//     production site releases this way today, the fixture keeps it legal).
//
// Unlike the other analyzers this one checks _test.go files too: the pool
// is process-global, so a test helper that leaks a buffer corrupts the
// packages under test just as effectively as production code.
var PoolLifecycleAnalyzer = &analysis.Analyzer{
	Name:     "repopoollifecycle",
	Doc:      "pooled buffers must be released on every path and must not escape their acquiring function",
	Run:      runPoolLifecycle,
	Requires: []*analysis.Analyzer{inspect.Analyzer},
}

func init() {
	PoolLifecycleAnalyzer.Flags.String("scope", dataPlaneScope,
		"comma-separated package paths to check (\"all\" for every package)")
}

// poolPairs maps each pool accessor to its releasing put, named as
// releaseName names it: a function by its name, a method as Type.Method.
var poolPairs = map[string]string{
	"Pool.Get":       "Pool.Put",
	"getRecCols":     "putRecCols",
	"getSortScratch": "putSortScratch",
}

// releaseName names fn as poolPairs names a put: a method as Type.Method,
// anything else by its name.
func releaseName(fn *types.Func) string {
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		if tn := typeName(recv.Type()); tn != nil {
			return tn.Name() + "." + fn.Name()
		}
	}
	return fn.Name()
}

// typeName returns the declared type that t names, through one pointer, or
// nil.
func typeName(t types.Type) *types.TypeName {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj()
	}
	return nil
}

// releases reports whether call is the put that releases obj: put called
// with obj in an argument.
func releases(info *types.Info, call *ast.CallExpr, put string, obj types.Object) bool {
	fn := calleeFunc(info, call)
	if fn == nil || releaseName(fn) != put {
		return false
	}
	for _, arg := range call.Args {
		if usesObject(info, arg, obj) {
			return true
		}
	}
	return false
}

func runPoolLifecycle(pass *analysis.Pass) (interface{}, error) {
	scope := pass.Analyzer.Flags.Lookup("scope").Value.String()
	if !inScope(scope, pass.Pkg.Path()) {
		return nil, nil
	}
	ignores, report := passReporter(pass)

	carriers := carrierTypes(pass)

	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	ins.Preorder([]ast.Node{(*ast.FuncDecl)(nil)}, func(n ast.Node) {
		fd := n.(*ast.FuncDecl)
		// An accessor's own body is the pool's: it hands buffers over.
		name := releaseName(pass.TypesInfo.Defs[fd.Name].(*types.Func))
		if _, get := poolPairs[name]; fd.Body == nil || get || isPut(name) {
			return
		}
		checkPoolOwnership(pass, report, carriers, fd)
	})
	ignores.reportUnused(pass)
	return nil, nil
}

// isPut reports whether name, as releaseName names it, is one of
// poolPairs' puts.
func isPut(name string) bool {
	for _, put := range poolPairs {
		if name == put {
			return true
		}
	}
	return false
}

// poolGetCall reports whether call acquires from a pool, returning the name
// of the matching put.
func poolGetCall(pass *analysis.Pass, call *ast.CallExpr) (putName string, ok bool) {
	fn := calleeFunc(pass.TypesInfo, call)
	if fn == nil {
		return "", false
	}
	putName, ok = poolPairs[releaseName(fn)]
	return putName, ok
}

// carrierTypes collects the package's named types that own pooled scratch:
// those with a method whose body calls any put function. Handing a buffer
// to a field of such a type transfers ownership to the carrier.
func carrierTypes(pass *analysis.Pass) map[*types.TypeName]bool {
	carriers := map[*types.TypeName]bool{}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Body == nil || len(fd.Recv.List) == 0 {
				continue
			}
			callsPut := false
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if fn := calleeFunc(pass.TypesInfo, call); fn != nil && isPut(releaseName(fn)) {
						callsPut = true
					}
				}
				return !callsPut
			})
			if tn := typeName(pass.TypesInfo.TypeOf(fd.Recv.List[0].Type)); callsPut && tn != nil {
				carriers[tn] = true
			}
		}
	}
	return carriers
}

// checkPoolOwnership tracks every pooled acquisition in fd and reports
// escapes and missing releases.
func checkPoolOwnership(pass *analysis.Pass, report func(token.Pos, string, ...interface{}), carriers map[*types.TypeName]bool, fd *ast.FuncDecl) {
	// acquisitions: local object → name of the put that releases it.
	type acq struct {
		obj  types.Object
		put  string
		pos  token.Pos
		name string
	}
	var acqs []acq
	var stack []ast.Node
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		put, ok := poolGetCall(pass, call)
		if !ok {
			return true
		}
		if obj, id := heldBy(pass, carriers, stack, report, put); obj != nil {
			acqs = append(acqs, acq{obj: obj, put: put, pos: call.Pos(), name: id})
		}
		return true
	})
	if len(acqs) == 0 {
		return
	}

	for _, a := range acqs {
		released := false
		escaped := false
		// The earliest position at which a is released, handed to a
		// carrier or put inside a closure (or deferred).
		firstRelease := token.NoPos
		release := func(pos token.Pos) {
			released = true
			if pos > a.pos && (firstRelease == token.NoPos || pos < firstRelease) {
				firstRelease = pos
			}
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch v := n.(type) {
			case *ast.ReturnStmt:
				for _, res := range v.Results {
					// Only a returned reference escapes: `return rc` or
					// `return rc.keys` leak pool-backed memory, while a
					// derived scalar (`return len(rc.keys)`) is fine —
					// its root is a call, not the buffer.
					if root := rootIdent(res); root != nil && pass.TypesInfo.ObjectOf(root) == a.obj {
						report(v.Pos(), "pooled buffer %s escapes via return: the caller would hold memory the pool is free to hand out again; have the caller acquire and pass it in", a.name)
						escaped = true
					}
				}
			case *ast.CallExpr:
				if releases(pass.TypesInfo, v, a.put, a.obj) {
					release(v.Pos())
				}
			case *ast.CompositeLit:
				if carriers[typeName(pass.TypesInfo.TypeOf(v))] && usesObject(pass.TypesInfo, v, a.obj) {
					release(v.Pos()) // ownership handed to the carrier literal
				}
			case *ast.AssignStmt:
				for i, lhs := range v.Lhs {
					if i >= len(v.Rhs) && len(v.Rhs) != 1 {
						continue
					}
					rhs := v.Rhs[0]
					if len(v.Rhs) == len(v.Lhs) {
						rhs = v.Rhs[i]
					}
					if !usesObject(pass.TypesInfo, rhs, a.obj) {
						continue
					}
					// Writing a field of the buffer itself (sc.order = …)
					// mutates the owned value; no new reference escapes.
					if root := rootIdent(lhs); root != nil && pass.TypesInfo.ObjectOf(root) == a.obj {
						continue
					}
					switch dest := destKind(pass, carriers, lhs); dest {
					case destCarrier:
						release(v.Pos()) // ownership handed to the carrier's release method
					case destField:
						report(v.Pos(), "pooled buffer %s escapes into %s: only a type that releases it (a method calling %s) may hold a pooled buffer", a.name, lhsString(lhs), a.put)
						escaped = true
					case destGlobal:
						report(v.Pos(), "pooled buffer %s escapes into package-level state %s", a.name, lhsString(lhs))
						escaped = true
					}
				}
			}
			return true
		})
		if !released && !escaped {
			report(a.pos, "pooled buffer %s is acquired but never released: call %s on every path (defer it, or hand it to a releasing carrier)", a.name, a.put)
		}
		if released && !escaped {
			reportEarlyReturns(fd.Body, a.pos, firstRelease, func(ret *ast.ReturnStmt) {
				report(ret.Pos(), "pooled buffer %s leaks on this return: it is released only further down; call %s before returning, or defer it", a.name, a.put)
			})
		}
	}
}

// heldBy returns the local that receives the pool acquisition on top of
// stack (the call and its ancestors in fd's body), for tracking. A
// carrier's field or composite literal takes ownership instead; every other
// receiver — a return, a call argument, a dereference, a foreign field or
// literal, a global — is reported, because the buffer can never be put back.
func heldBy(pass *analysis.Pass, carriers map[*types.TypeName]bool, stack []ast.Node, report func(token.Pos, string, ...interface{}), put string) (types.Object, string) {
	i := len(stack) - 2
	for _, paren := stack[i].(*ast.ParenExpr); paren; _, paren = stack[i].(*ast.ParenExpr) {
		i--
	}
	child := stack[i+1]
	var lhs ast.Expr
	switch p := stack[i].(type) {
	case *ast.AssignStmt:
		for k, rhs := range p.Rhs {
			if rhs == child && len(p.Lhs) == len(p.Rhs) {
				lhs = p.Lhs[k]
			}
		}
	case *ast.ValueSpec:
		for k, v := range p.Values {
			if v == child && len(p.Names) == len(p.Values) {
				lhs = p.Names[k]
			}
		}
	case *ast.KeyValueExpr:
		if carriers[typeName(pass.TypesInfo.TypeOf(stack[i-1].(*ast.CompositeLit)))] {
			return nil, ""
		}
	case *ast.CompositeLit:
		if carriers[typeName(pass.TypesInfo.TypeOf(p))] {
			return nil, ""
		}
	}
	if id, ok := lhs.(*ast.Ident); ok {
		if obj := pass.TypesInfo.ObjectOf(id); obj != nil && obj.Parent() != obj.Pkg().Scope() {
			return obj, id.Name
		}
	}
	if lhs != nil && destKind(pass, carriers, lhs) == destCarrier {
		return nil, ""
	}
	report(stack[len(stack)-1].Pos(), "pooled buffer is held by no local and no carrier: acquire it into a local and call %s on every path, or hand it to a type with a method calling it", put)
	return nil, ""
}

// reportEarlyReturns calls leak on every return of body, outside function
// literals (whose returns leave only the literal), that lies after the
// acquisition at acquired and before the first release.
func reportEarlyReturns(body *ast.BlockStmt, acquired, firstRelease token.Pos, leak func(*ast.ReturnStmt)) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			if v.Pos() > acquired && v.Pos() < firstRelease {
				leak(v)
			}
		}
		return true
	})
}

type destination int

const (
	destLocal destination = iota
	destCarrier
	destField
	destGlobal
)

// destKind classifies an assignment destination for a pooled buffer:
// a plain local (rebind, fine), a field of a carrier type (ownership
// transfer), a field of anything else (escape), or package-level state.
func destKind(pass *analysis.Pass, carriers map[*types.TypeName]bool, lhs ast.Expr) destination {
	root := rootIdent(lhs)
	if root == nil {
		return destField // e.g. a field through a call result: treat as escape
	}
	obj := pass.TypesInfo.ObjectOf(root)
	if obj == nil {
		return destLocal
	}
	if obj.Parent() == obj.Pkg().Scope() {
		return destGlobal
	}
	// Does the path go through a field selection?
	hasField := false
	ast.Inspect(lhs, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			if s, isSel := pass.TypesInfo.Selections[sel]; isSel && s.Kind() == types.FieldVal {
				hasField = true
			}
		}
		return !hasField
	})
	if !hasField {
		return destLocal
	}
	if carriers[typeName(obj.Type())] {
		return destCarrier
	}
	return destField
}

// lhsString renders an assignment destination for a diagnostic.
func lhsString(e ast.Expr) string {
	switch v := e.(type) {
	case *ast.Ident:
		return v.Name
	case *ast.SelectorExpr:
		return lhsString(v.X) + "." + v.Sel.Name
	case *ast.IndexExpr:
		return lhsString(v.X) + "[...]"
	case *ast.StarExpr:
		return "*" + lhsString(v.X)
	default:
		return "destination"
	}
}
