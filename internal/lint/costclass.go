package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"reflect"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
)

// This file is the cost-class machine: everything about classifying a
// function on one axis of the MPC cost model that does not depend on what
// the axis measures. The paper prices an algorithm on two axes — rounds and
// load — and roundcost.go / loadcost.go each describe one as an axis value:
// the lattice as data plus the few hooks where the axes genuinely differ.

// costClass is a position in an axis's lattice: 0 charges nothing, the
// axis's last class is unknown (could not be classified). The order is the
// lattice order: sequencing and branching compose by max, so a function's
// class is the worst class of anything it can reach.
type costClass int

// axis describes one cost axis.
type axis struct {
	name  string   // declaration keyword: //lint:<name> on functions, <name>: "…" on adapters
	noun  string   // "<noun> class" in diagnostics
	names []string // the lattice, bottom first; the last class is unknown and not declarable

	// Registry side: the weakest class a registered algorithm may declare,
	// and the wording of the registry checker's diagnostics.
	adapterMin costClass
	figure1    string // what the declaration matches in Figure 1
	unknownAs  string // what an unclassifiable run body is unknown in
	reaches    string // what a run body's charges are a class of

	// newFact allocates the axis's fact. Each axis has its own Go type: the
	// vet driver keys facts by reflect type, so a shared type would let one
	// axis's facts answer the other's queries.
	newFact func() costFact

	// declWins makes a valid declaration the exported class even when the
	// computed class is lower; otherwise the export is min(computed,
	// declared). Either way computed > declared is reported.
	declWins bool

	// loopClass classifies a for/range statement; nil means loops do not
	// escalate and are walked like any other statement.
	loopClass func(c *classifier, fs *funcScope, loop ast.Stmt) costClass

	// intrinsic classifies calls the axis prices by their arguments rather
	// than their callee; nil means there are none.
	intrinsic func(fs *funcScope, call *ast.CallExpr) (costClass, bool)

	// boundClaim returns what an adapter's bound prose wrongly claims about
	// this axis given the declared class, or "" when the prose is fine.
	boundClaim func(bound string, declared costClass) string
}

func (ax *axis) unknown() costClass { return costClass(len(ax.names) - 1) }

// parse resolves a declared class name. Unknown is not declarable: a
// declaration exists to rule it out.
func (ax *axis) parse(s string) (costClass, bool) {
	for i, name := range ax.names[:ax.unknown()] {
		if s == name {
			return costClass(i), true
		}
	}
	return ax.unknown(), false
}

// orList renders names as "a, b, or c".
func orList(names []string) string {
	last := len(names) - 1
	return strings.Join(names[:last], ", ") + ", or " + names[last]
}

// costSummary is what a function is held to on an axis — it charges at most
// Class — both as parsed from its //lint:<axis> declaration and as exported
// per function for cross-package composition. Trusted summaries come from
// `//lint:<axis> <class> trust <reason>` declarations and are asserted, not
// computed — the grounding axioms of the analysis and the assume/guarantee
// seeds for recursion.
type costSummary struct {
	Class   costClass
	Trusted bool
}

// costFact is an axis's fact type: a distinct named costSummary.
type costFact interface {
	analysis.Fact
	summary() *costSummary
}

func (ax *axis) factString(s *costSummary) string {
	if s.Trusted {
		return ax.name + "(" + ax.names[s.Class] + ", trusted)"
	}
	return ax.name + "(" + ax.names[s.Class] + ")"
}

// parseDecl extracts the //lint:<axis> declaration from a function's doc
// comment (the raw list: Doc.Text() strips directives). Malformed
// declarations are reported through report (when non-nil) and ignored.
func (ax *axis) parseDecl(fd *ast.FuncDecl, report func(pos token.Pos, format string, args ...interface{})) *costSummary {
	if fd == nil || fd.Doc == nil {
		return nil
	}
	bad := func(pos token.Pos, format string, args ...interface{}) *costSummary {
		if report != nil {
			report(pos, "lint:"+ax.name+format, args...)
		}
		// A malformed directive is still a directive: returning the unknown
		// sentinel keeps the missing-declaration check from double-firing.
		return &costSummary{Class: ax.unknown()}
	}
	for _, c := range fd.Doc.List {
		rest, ok := strings.CutPrefix(c.Text, "//lint:"+ax.name)
		if !ok {
			continue
		}
		// A nested // starts a comment within the directive (the fixture
		// harness rides want expectations there).
		if i := strings.Index(rest, "//"); i >= 0 {
			rest = rest[:i]
		}
		fields := strings.Fields(rest)
		if len(fields) == 0 {
			return bad(c.Pos(), " declaration on %s needs a class (%s)", fd.Name.Name, orList(ax.names[:ax.unknown()]))
		}
		class, ok := ax.parse(fields[0])
		if !ok {
			return bad(c.Pos(), " declaration on %s has unknown class %q (want %s)", fd.Name.Name, fields[0], orList(ax.names[:ax.unknown()]))
		}
		if len(fields) == 1 {
			return &costSummary{Class: class}
		}
		if fields[1] != "trust" {
			return bad(c.Pos(), " declaration on %s has trailing %q (only `trust <reason>` may follow the class)", fd.Name.Name, fields[1])
		}
		if len(fields) < 3 {
			return bad(c.Pos(), " trust declaration on %s needs a reason", fd.Name.Name)
		}
		return &costSummary{Class: class, Trusted: true}
	}
	return nil
}

// classifier resolves functions to classes on one axis. It is
// driver-agnostic: the analyzer wires lookup to the current package and
// imported to the facts store; the contracts generator wires lookup to a
// whole-program index and leaves imported nil.
type classifier struct {
	ax           *axis
	lookup       func(fn *types.Func) (*ast.FuncDecl, *types.Info)
	imported     func(fn *types.Func) (costClass, bool)
	report       func(pos token.Pos, format string, args ...interface{})
	requireDecls bool

	memo  map[*types.Func]costClass
	stack map[*types.Func]*classFrame
	sites *siteIndex // declared charge sites per function; nil unless collecting
}

type classFrame struct {
	decl     *costSummary
	recursed bool // re-entered with no declaration to assume
}

func newClassifier(ax *axis, lookup func(fn *types.Func) (*ast.FuncDecl, *types.Info), imported func(fn *types.Func) (costClass, bool), report func(pos token.Pos, format string, args ...interface{}), requireDecls bool) *classifier {
	return &classifier{
		ax:           ax,
		lookup:       lookup,
		imported:     imported,
		report:       report,
		requireDecls: requireDecls,
		memo:         map[*types.Func]costClass{},
		stack:        map[*types.Func]*classFrame{},
	}
}

func (c *classifier) reportf(pos token.Pos, format string, args ...interface{}) {
	if c.report != nil {
		c.report(pos, format, args...)
	}
}

// classifyFuncRef resolves fn to its class: memoized, with declaration
// checking for functions whose bodies are in view and assume/guarantee
// handling for recursion (a cycle resolves to the in-progress function's
// declared class; an undeclared cycle is reported and resolves to unknown).
// Drift — computed > declared — is reported here once, at the function, and
// callers see the declaration, so it never repeats at every transitive
// caller.
func (c *classifier) classifyFuncRef(fn *types.Func) costClass {
	if class, ok := c.memo[fn]; ok {
		return class
	}
	ax, unknown := c.ax, c.ax.unknown()
	if frame, ok := c.stack[fn]; ok {
		if frame.decl != nil {
			return frame.decl.Class
		}
		frame.recursed = true
		return unknown
	}
	fd, info := c.lookup(fn)
	if fd == nil {
		class := costClass(0)
		if c.imported != nil {
			if imp, ok := c.imported(fn); ok {
				class = imp
			}
		}
		c.memo[fn] = class
		return class
	}

	decl := ax.parseDecl(fd, c.report)
	frame := &classFrame{decl: decl}
	c.stack[fn] = frame
	sites := c.sites.open()

	var class costClass
	if decl != nil && decl.Trusted {
		class = decl.Class
	} else {
		class = c.nodeClass(newFuncScope(info, fd.Body, sites), fd.Body)
		if frame.recursed {
			c.reportf(fd.Name.Pos(), "%s is recursive and needs a //lint:%s declaration to classify (assume/guarantee)", fn.Name(), ax.name)
			class = unknown
		}
		switch {
		case decl != nil:
			if decl.Class != unknown {
				if class > decl.Class {
					c.reportf(fd.Name.Pos(), "%s computes %s class %s, which exceeds its declared //lint:%s %s", fn.Name(), ax.noun, ax.names[class], ax.name, ax.names[decl.Class])
				}
				if class > decl.Class || ax.declWins {
					class = decl.Class
				}
			}
		case c.requireDecls && class == unknown && !frame.recursed:
			c.reportf(fd.Name.Pos(), "%s cannot be classified (a recursive closure charges %s) and needs a //lint:%s declaration to anchor it", fn.Name(), ax.name, ax.name)
		case c.requireDecls && fn.Exported() && class > 0 && class != unknown:
			c.reportf(fd.Name.Pos(), "exported %s charges %s (class %s) but has no //lint:%s declaration", fn.Name(), ax.name, ax.names[class], ax.name)
		}
	}

	delete(c.stack, fn)
	c.memo[fn] = class
	c.sites.close(fn, sites)
	return class
}

// funcScope is the per-body context for classification: single-assignment
// dataflow for bound and magnitude tracing, element-assignment tracking for
// ChargeRound slices, and closure-binding resolution.
type funcScope struct {
	info        *types.Info
	assigns     map[types.Object][]ast.Expr // ident → recorded RHS (nil = untraceable)
	elemAssigns map[types.Object][]ast.Expr // slice ident → element RHS (nil = accumulation)
	bindings    map[types.Object]*ast.FuncLit
	sites       *siteSet
	active      map[*ast.FuncLit]bool // inlining in progress (self-recursive closure guard)
	recursed    map[*ast.FuncLit]bool // closures whose inlining hit their own back-edge
}

func newFuncScope(info *types.Info, body *ast.BlockStmt, sites *siteSet) *funcScope {
	fs := &funcScope{
		info:        info,
		assigns:     map[types.Object][]ast.Expr{},
		elemAssigns: map[types.Object][]ast.Expr{},
		bindings:    map[types.Object]*ast.FuncLit{},
		sites:       sites,
		active:      map[*ast.FuncLit]bool{},
		recursed:    map[*ast.FuncLit]bool{},
	}
	record := func(id *ast.Ident, rhs ast.Expr) {
		if id.Name == "_" {
			return
		}
		obj := info.Defs[id]
		if obj == nil {
			obj = info.Uses[id]
		}
		if obj != nil {
			fs.assigns[obj] = append(fs.assigns[obj], rhs)
		}
	}
	recordElem := func(e ast.Expr, rhs ast.Expr) {
		ix, ok := e.(*ast.IndexExpr)
		if !ok {
			return
		}
		id, ok := ix.X.(*ast.Ident)
		if !ok {
			return
		}
		if obj := info.Uses[id]; obj != nil {
			fs.elemAssigns[obj] = append(fs.elemAssigns[obj], rhs)
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range v.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					if v.Tok == token.ASSIGN && len(v.Rhs) == len(v.Lhs) {
						recordElem(lhs, v.Rhs[i])
					} else {
						recordElem(lhs, nil) // compound assign (+=): accumulation
					}
					continue
				}
				if len(v.Rhs) == len(v.Lhs) {
					record(id, v.Rhs[i])
				} else {
					record(id, nil) // multi-value: untraceable
				}
			}
		case *ast.IncDecStmt:
			if id, ok := v.X.(*ast.Ident); ok {
				record(id, nil)
			} else {
				// loads[s]++ steps the element by one: a const contribution.
				recordElem(v.X, &ast.BasicLit{Kind: token.INT, Value: "1"})
			}
		case *ast.RangeStmt:
			if id, ok := v.Key.(*ast.Ident); ok {
				record(id, nil)
			}
			if id, ok := v.Value.(*ast.Ident); ok {
				record(id, nil)
			}
		case *ast.GenDecl:
			for _, spec := range v.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, id := range vs.Names {
					if i < len(vs.Values) {
						record(id, vs.Values[i])
					}
				}
			}
		}
		return true
	})
	for obj, rhss := range fs.assigns {
		if len(rhss) == 1 && rhss[0] != nil {
			if lit, ok := ast.Unparen(rhss[0]).(*ast.FuncLit); ok {
				fs.bindings[obj] = lit
			}
		}
	}
	return fs
}

// nodeClass computes the class of a statement/expression subtree: max over
// everything reachable, with loops handed to the axis's loop hook and
// closure bodies handled at their call sites.
func (c *classifier) nodeClass(fs *funcScope, n ast.Node) costClass {
	if n == nil {
		return 0
	}
	class := costClass(0)
	ast.Inspect(n, func(m ast.Node) bool {
		switch v := m.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			if c.ax.loopClass == nil {
				return true
			}
			class = max(class, c.ax.loopClass(c, fs, v.(ast.Stmt)))
			return false
		case *ast.FuncLit:
			return false // classified where invoked; skipped where spawned
		case *ast.GoStmt:
			class = max(class, c.spawnClass(fs, v.Call))
			return false
		case *ast.DeferStmt:
			class = max(class, c.spawnClass(fs, v.Call))
			return false
		case *ast.CallExpr:
			class = max(class, c.callClass(fs, v))
			return true // args may hold nested calls
		}
		return true
	})
	return class
}

// spawnClass handles go/defer: a spawned closure's charges land on a child
// cluster (runtime.Fork's contract, returning through the Merge* facts) or
// outside this round structure, so a FuncLit operand is skipped; a named
// callee is charged normally (a deferred charge still runs in this
// function's dynamic extent).
func (c *classifier) spawnClass(fs *funcScope, call *ast.CallExpr) costClass {
	class := costClass(0)
	for _, arg := range call.Args {
		class = max(class, c.nodeClass(fs, arg))
	}
	if _, ok := ast.Unparen(call.Fun).(*ast.FuncLit); !ok {
		class = max(class, c.callClass(fs, call))
	}
	return class
}

// callClass classifies one call: the axis's intrinsics, inlined closures,
// resolved functions (local bodies or imported facts), or zero for dynamic
// callees.
func (c *classifier) callClass(fs *funcScope, call *ast.CallExpr) costClass {
	if c.ax.intrinsic != nil {
		if class, ok := c.ax.intrinsic(fs, call); ok {
			return class
		}
	}
	fun := ast.Unparen(call.Fun)
	if lit, ok := fun.(*ast.FuncLit); ok {
		return c.inlineLit(fs, lit)
	}
	if fn := calleeFunc(fs.info, call); fn != nil {
		class := c.classifyFuncRef(fn)
		if fs.sites != nil && class > 0 {
			c.sites.reach(c, fs.sites, fn)
		}
		return class
	}
	// A call through a function-typed variable: resolvable only when the
	// variable is bound exactly once, to a literal (the routeSide/semi
	// idiom). Anything else — interface methods, func params — is zero:
	// the observed-rounds and observed-load harness tests backstop this
	// hole.
	if id, ok := fun.(*ast.Ident); ok {
		if lit := fs.bindings[fs.info.Uses[id]]; lit != nil {
			return c.inlineLit(fs, lit)
		}
	}
	return 0
}

// inlineLit classifies a closure body in the enclosing scope. A
// self-recursive closure (the `var walk func(...); walk = func(...)` tree
// walker idiom) is resolved by assume/guarantee at zero: the back-edge is
// assumed to charge nothing, and if the computed body class confirms the
// guess the fixpoint is sound. A recursive closure that does charge has no
// declaration to anchor its fixpoint and classifies unknown.
func (c *classifier) inlineLit(fs *funcScope, lit *ast.FuncLit) costClass {
	if fs.active[lit] {
		fs.recursed[lit] = true
		return 0
	}
	fs.active[lit] = true
	class := c.nodeClass(fs, lit.Body)
	delete(fs.active, lit)
	if fs.recursed[lit] {
		delete(fs.recursed, lit)
		if class != 0 {
			return c.ax.unknown()
		}
	}
	return class
}

// runClass classifies an adapter's run value — a function literal in place,
// a named function through its (fact-backed) class — and returns the
// declared charge sites it reaches when the classifier collects them. ok is
// false when run is neither.
func (c *classifier) runClass(info *types.Info, run ast.Expr) (class costClass, sites []string, ok bool) {
	var id *ast.Ident
	switch v := ast.Unparen(run).(type) {
	case *ast.FuncLit:
		ss := c.sites.open()
		return c.nodeClass(newFuncScope(info, v.Body, ss), v.Body), ss.sorted(), true
	case *ast.Ident:
		id = v
	case *ast.SelectorExpr:
		id = v.Sel
	}
	if id != nil {
		if fn, ok := info.Uses[id].(*types.Func); ok {
			return c.classifyFuncRef(fn), c.sites.of(fn), true
		}
	}
	return c.ax.unknown(), nil, false
}

// declScope is the default declscope of the cost analyzers: the packages
// whose exported charging functions must carry declarations.
const declScope = "repro/internal/mpc,repro/internal/primitives,repro/internal/core"

// newCostAnalyzer builds an axis's per-function analyzer: it computes each
// function's class from its body plus the exported facts of its callees,
// checks it against the function's machine-readable declaration
//
//	//lint:<axis> <class>
//	//lint:<axis> <class> trust <reason>
//
// and exports it as a fact. Calls into functions without facts — std lib,
// out-of-scope packages, dynamic calls through interfaces or function
// values — count as zero; the harness's observed-rounds and observed-load
// tests backstop that assumption at runtime. Within declscope, an exported
// function that charges (class > zero) must carry a declaration, a computed
// class must not exceed its declaration, and a recursive function must
// declare its class (assume/guarantee). The result is the package's
// *classifier (nil for a scope-skipped package), which the axis's registry
// analyzer queries.
func newCostAnalyzer(ax *axis, name, doc string) *analysis.Analyzer {
	a := &analysis.Analyzer{
		Name:       name,
		Doc:        doc,
		Requires:   []*analysis.Analyzer{inspect.Analyzer},
		FactTypes:  []analysis.Fact{ax.newFact()},
		ResultType: reflect.TypeOf((*classifier)(nil)),
	}
	a.Flags.String("scope", dataPlaneScope,
		"comma-separated package paths to classify (\"all\" for every package)")
	a.Flags.String("declscope", declScope,
		"packages whose exported charging functions must carry //lint:"+ax.name+" declarations")
	a.Run = func(pass *analysis.Pass) (interface{}, error) {
		if !inScope(a.Flags.Lookup("scope").Value.String(), pass.Pkg.Path()) {
			return (*classifier)(nil), nil
		}
		requireDecls := inScope(a.Flags.Lookup("declscope").Value.String(), pass.Pkg.Path())
		ignores, report := passReporter(pass)

		// Index this package's function declarations (test files excluded: the
		// contracts cover shipped code, and _test.go files never export facts).
		decls := map[*types.Func]*ast.FuncDecl{}
		var order []*types.Func
		ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
		ins.Preorder([]ast.Node{(*ast.FuncDecl)(nil)}, func(n ast.Node) {
			fd := n.(*ast.FuncDecl)
			if fd.Body == nil || isTestFile(pass.Fset, fd.Pos()) {
				return
			}
			if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				decls[fn] = fd
				order = append(order, fn)
			}
		})

		cl := newClassifier(ax,
			func(fn *types.Func) (*ast.FuncDecl, *types.Info) { return decls[fn], pass.TypesInfo },
			func(fn *types.Func) (costClass, bool) {
				fact := ax.newFact()
				if pass.ImportObjectFact(fn, fact) {
					return fact.summary().Class, true
				}
				return 0, false
			},
			report, requireDecls)

		for _, fn := range order {
			class := cl.classifyFuncRef(fn)
			if class > 0 && fn.Exported() {
				d := ax.parseDecl(decls[fn], nil)
				fact := ax.newFact()
				*fact.summary() = costSummary{Class: class, Trusted: d != nil && d.Trusted}
				pass.ExportObjectFact(fn, fact)
			}
		}
		ignores.reportUnused(pass)
		return cl, nil
	}
	return a
}
