package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// The rounds axis: how many communication rounds a function charges, as a
// function of the input size IN.
//
//	zero    charges nothing
//	const   O(1) rounds — a fixed number, set by the query's structure
//	log     O(log IN) rounds
//	loop    rounds scale with the data (charge inside a data-bound loop)
//	unknown could not be classified
const (
	roundsZero costClass = iota
	roundsConst
	roundsLog
	roundsLoop
	roundsUnknown
)

var roundsAxis = &axis{
	name:      "rounds",
	noun:      "round",
	names:     []string{"zero", "const", "log", "loop", "unknown"},
	figure1:   "round behavior",
	unknownAs: "round cost",
	reaches:   "class",
	newFact:   func() costFact { return new(RoundCostFact) },
	loopClass: roundsLoopClass,
	// The paper's Figure 1 bounds are load bounds; round behavior belongs
	// in the checked rounds field, not in prose.
	boundClaim: func(bound string, _ costClass) string {
		if strings.Contains(strings.ToLower(bound), "round") {
			return "round behavior in prose; the bound field is the load bound — declare rounds in the checked rounds field"
		}
		return ""
	},
}

// RoundCostFact is the rounds axis's exported per-function summary.
type RoundCostFact costSummary

func (*RoundCostFact) AFact()                  {}
func (f *RoundCostFact) summary() *costSummary { return (*costSummary)(f) }
func (f *RoundCostFact) String() string        { return roundsAxis.factString(f.summary()) }

// RoundCostAnalyzer is the rounds axis's per-function analyzer (see
// newCostAnalyzer). The analysis is grounded entirely in trusted
// declarations (the simulator's newRound is the base charge); everything
// else composes: a loop escalates its body's class by its bound (constant
// or structural bound keeps it, a log-shrinking bound lifts const to log, a
// data-dependent bound lifts anything charging to loop), and on a violation
// the export is min(computed, declared).
var RoundCostAnalyzer = newCostAnalyzer(roundsAxis, "reporoundcost",
	"per-function static round-cost classification, checked against //lint:rounds declarations and exported as facts")

// RepoBoundAnalyzer closes the loop between what an algorithm declares and
// what its code can reach (see newRegistryAnalyzer): `rounds:
// "zero|const|log|loop"` on every registration, respected by the run body's
// static class, and no round-count claims smuggled into the bound prose.
var RepoBoundAnalyzer = newRegistryAnalyzer(roundsAxis, RoundCostAnalyzer, "repobound",
	"registered algorithms must declare a round class that their run body's static classification respects")

// siteIndex collects, per function, the declared charging primitives its
// body can reach (direct plus transitive) — the charge-site lists of
// CONTRACTS.md. Only the contracts generator's rounds classifier carries
// one; every method is a no-op on nil.
type siteIndex struct {
	byFunc map[*types.Func][]string
	fns    map[string]*types.Func // site name → function, for cross-classifier rendering
}

func newSiteIndex() *siteIndex {
	return &siteIndex{byFunc: map[*types.Func][]string{}, fns: map[string]*types.Func{}}
}

// siteSet accumulates the sites of one body under classification.
type siteSet struct {
	seen map[string]bool
}

func (x *siteIndex) open() *siteSet {
	if x == nil {
		return nil
	}
	return &siteSet{seen: map[string]bool{}}
}

func (x *siteIndex) close(fn *types.Func, s *siteSet) {
	if x != nil {
		x.byFunc[fn] = s.sorted()
	}
}

func (x *siteIndex) of(fn *types.Func) []string {
	if x == nil {
		return nil
	}
	return x.byFunc[fn]
}

// reach records a charging call to fn from the body accumulating into s: fn
// itself when it carries a declaration on c's axis, plus everything fn
// reaches.
func (x *siteIndex) reach(c *classifier, s *siteSet, fn *types.Func) {
	fd, _ := c.lookup(fn)
	if fd == nil {
		return
	}
	if c.ax.parseDecl(fd, nil) != nil {
		// Rendered for CONTRACTS.md's charge-site lists.
		name := strings.ReplaceAll(fn.FullName(), "repro/internal/", "")
		s.seen[name] = true
		x.fns[name] = fn
	}
	for _, name := range x.byFunc[fn] {
		s.seen[name] = true
	}
}

func (s *siteSet) sorted() []string {
	if s == nil {
		return nil
	}
	out := make([]string, 0, len(s.seen))
	for name := range s.seen {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// roundsLoopClass is the rounds axis's loop hook: the repeated part of a
// for/range statement is escalated by the loop's trip-count bound.
func roundsLoopClass(c *classifier, fs *funcScope, loop ast.Stmt) costClass {
	switch v := loop.(type) {
	case *ast.ForStmt:
		class := c.nodeClass(fs, v.Init)
		inner := max(c.nodeClass(fs, v.Cond), c.nodeClass(fs, v.Post), c.nodeClass(fs, v.Body))
		return max(class, loopApply(forBound(fs, v), inner))
	case *ast.RangeStmt:
		class := c.nodeClass(fs, v.X)
		return max(class, loopApply(rangeBound(fs, v), c.nodeClass(fs, v.Body)))
	}
	return roundsZero
}

// loopBound classifies a loop's trip count.
type loopBound int

const (
	boundConst loopBound = iota // literal, structural slice length, traced constant
	boundLog                    // halving search
	boundData                   // scales with the input data
)

// loopApply escalates a loop body's class by the loop's bound. A body that
// charges nothing stays Zero whatever the trip count.
func loopApply(bound loopBound, inner costClass) costClass {
	if inner == roundsZero || inner == roundsUnknown {
		return inner
	}
	switch bound {
	case boundConst:
		return inner
	case boundLog:
		if inner == roundsConst {
			return roundsLog
		}
		return roundsLoop
	}
	return roundsLoop // data-dependent trip count
}

// forBound classifies a for statement's trip count: a halving search is
// Log, a bound traced to a constant or structural length is Const, and
// anything else is Data.
func forBound(fs *funcScope, v *ast.ForStmt) loopBound {
	if halvingLoop(v) {
		return boundLog
	}
	if v.Cond == nil {
		return boundData
	}
	be, ok := ast.Unparen(v.Cond).(*ast.BinaryExpr)
	if !ok {
		return boundData
	}
	// The loop variable is whatever the post statement steps; the bound is
	// the other side of the comparison.
	post := map[types.Object]bool{}
	switch p := v.Post.(type) {
	case *ast.IncDecStmt:
		if id, ok := p.X.(*ast.Ident); ok {
			post[fs.info.Uses[id]] = true
		}
	case *ast.AssignStmt:
		for _, lhs := range p.Lhs {
			if id, ok := lhs.(*ast.Ident); ok {
				post[fs.info.Uses[id]] = true
			}
		}
	}
	isPostVar := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && post[fs.info.Uses[id]]
	}
	switch {
	case isPostVar(be.X):
		return exprBound(fs, be.Y, map[types.Object]bool{})
	case isPostVar(be.Y):
		return exprBound(fs, be.X, map[types.Object]bool{})
	}
	return boundData
}

// halvingLoop detects binary-search-shaped loops: a comparison condition
// with a body or post step that divides by two (x/2 or x>>1).
func halvingLoop(v *ast.ForStmt) bool {
	if v.Cond == nil {
		return false
	}
	if _, ok := ast.Unparen(v.Cond).(*ast.BinaryExpr); !ok {
		return false
	}
	halves := func(n ast.Node) bool {
		found := false
		ast.Inspect(n, func(m ast.Node) bool {
			switch w := m.(type) {
			case *ast.FuncLit:
				return false
			case *ast.BinaryExpr:
				if lit, ok := ast.Unparen(w.Y).(*ast.BasicLit); ok && lit.Kind == token.INT {
					if (w.Op == token.QUO && lit.Value == "2") || (w.Op == token.SHR && lit.Value == "1") {
						found = true
					}
				}
			}
			return !found
		})
		return found
	}
	inAssign := false
	ast.Inspect(v.Body, func(m ast.Node) bool {
		if as, ok := m.(*ast.AssignStmt); ok && halves(as) {
			inAssign = true
		}
		return !inAssign
	})
	if v.Post != nil && halves(v.Post) {
		inAssign = true
	}
	return inAssign
}

// rangeBound classifies a range statement's trip count from the ranged
// type: containers of data values (tuples, values, items, bytes) are Data,
// containers of structural values (indexes, distributions, stats) are
// Const, maps/chans/strings are Data, and range-over-int traces the bound.
func rangeBound(fs *funcScope, v *ast.RangeStmt) loopBound {
	t := fs.info.TypeOf(v.X)
	if t == nil {
		return boundData
	}
	if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsInteger != 0 {
		return exprBound(fs, v.X, map[types.Object]bool{})
	}
	return lenBound(t)
}

// exprBound classifies an integer bound expression, tracing
// single-assignment identifiers (visited guards assignment cycles).
func exprBound(fs *funcScope, e ast.Expr, visited map[types.Object]bool) loopBound {
	e = ast.Unparen(e)
	if tv, ok := fs.info.Types[e]; ok && tv.Value != nil {
		return boundConst // compile-time constant
	}
	switch v := e.(type) {
	case *ast.BasicLit:
		return boundConst
	case *ast.Ident:
		obj := fs.info.Uses[v]
		if obj == nil || visited[obj] {
			return boundData
		}
		visited[obj] = true
		if rhss := fs.assigns[obj]; len(rhss) == 1 && rhss[0] != nil {
			return exprBound(fs, rhss[0], visited)
		}
		return boundData
	case *ast.BinaryExpr:
		return max(exprBound(fs, v.X, visited), exprBound(fs, v.Y, visited))
	case *ast.UnaryExpr:
		return exprBound(fs, v.X, visited)
	case *ast.CallExpr:
		if isBuiltin(fs.info, v, "len") || isBuiltin(fs.info, v, "cap") {
			if len(v.Args) == 1 {
				if t := fs.info.TypeOf(v.Args[0]); t != nil {
					return lenBound(t)
				}
			}
		}
		return boundData
	}
	return boundData
}

// lenBound classifies len(x) by x's type: the length of a container of
// data values scales with the input; the length of a container of
// structural values (relation indexes, per-server stats, sub-cluster
// handles) is set by the query, not the data.
func lenBound(t types.Type) loopBound {
	switch u := t.Underlying().(type) {
	case *types.Slice:
		if isDataElem(u.Elem()) {
			return boundData
		}
		return boundConst
	case *types.Array:
		return boundConst
	case *types.Pointer:
		if _, ok := u.Elem().Underlying().(*types.Array); ok {
			return boundConst
		}
	}
	return boundData // map, chan, string, interface, func
}

// isDataElem reports whether a slice of this element type holds data (one
// element per input tuple/value) rather than structure.
func isDataElem(t types.Type) bool {
	if named, ok := t.(*types.Named); ok {
		switch named.Obj().Name() {
		case "Value", "Tuple", "Item":
			return true
		}
	}
	if b, ok := t.Underlying().(*types.Basic); ok {
		switch {
		case b.Info()&types.IsString != 0:
			return true
		case b.Kind() == types.Uint8: // []byte
			return true
		}
	}
	if _, ok := t.Underlying().(*types.Interface); ok {
		return true
	}
	return false
}
