package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/stats"
)

// The load axis: the per-round, per-server charge magnitude a function can
// reach, as a function of the input size IN and the server count p.
//
//	zero    charges nothing
//	const   O(1) or O(p) per server — independent of IN (coordinator
//	        summaries, directory entries)
//	perP    O(IN/p) — the paper's linear-load bucket (Theorem 2 rounds)
//	frac    O(IN/p^c) for some 0 < c < 1 — the √p and p^(2/3) bounds of
//	        Sections 4 and 7
//	linear  O(IN) — a charge proportional to the input reaches one server
//	unknown could not be classified
//
// Loops compose by max like everything else — the load of one round is the
// largest single charge, and more rounds never raise the per-round maximum
// (rounds are the other axis) — so this axis has no loop hook.
const (
	loadZero costClass = iota
	loadConst
	loadPerP
	loadFrac
	loadLinear
	loadUnknown
)

var loadNames = []string{"zero", "const", "perP", "frac", "linear", "unknown"}

var loadAxis = &axis{
	name:  "load",
	noun:  "load",
	names: loadNames,
	// perP, frac and linear are the three buckets a registered algorithm can
	// honestly claim; zero/const algorithms don't exist in the catalog.
	adapterMin: loadPerP,
	figure1:    "load bound",
	unknownAs:  "load",
	reaches:    "load class",
	newFact:    func() costFact { return new(LoadCostFact) },
	// The physical exchange books its receives through
	// Cluster.bookExchange, which is not a Charge intrinsic and so is
	// invisible to this classifier: declarations are the contract and the
	// computed class is only the drift detector.
	declWins:  true,
	intrinsic: chargeIntrinsic,
	// A bound row whose formula has a √p or p^(c) term claims frac, one
	// with a /p term perP.
	rowClass: func(_ *axis, row stats.Row) costClass { return boundMarkerClass(row.Expr.String()) },
}

// LoadCostFact is the load axis's exported per-function summary. Its
// trusted declarations carry the balance arguments (combiner caps,
// skew-free hashing, sub-problem size guarantees) the syntactic classifier
// cannot see.
type LoadCostFact costSummary

func (*LoadCostFact) AFact()                  {}
func (f *LoadCostFact) summary() *costSummary { return (*costSummary)(f) }
func (f *LoadCostFact) String() string        { return loadAxis.factString(f.summary()) }

// LoadCostAnalyzer is the load axis's per-function analyzer (see
// newCostAnalyzer): the class comes from the arithmetic shape of the n
// argument at every cluster charge site. The charge intrinsics are the
// Cluster methods themselves — Charge(s, n) classifies n, ChargeInput(total)
// classifies total divided by p, and ChargeRound(loads) classifies the loads
// slice's element assignments — so the analysis is grounded in the
// simulator's own accounting, recognized syntactically (method name on a
// cluster-typed receiver) so it composes across packages without needing
// facts for the intrinsics. Division by a p-expression steps linear down to
// perP; division by Isqrt(p)/Iroot(p, k) steps it to frac; sums, products,
// and remainders take the max/divisor; len of a data container is linear,
// of a structural container const.
var LoadCostAnalyzer = newCostAnalyzer(loadAxis, "repoloadcost",
	"per-function static load classification of cluster charge arguments, checked against //lint:load declarations and exported as facts")

// RepoLoadAnalyzer closes the load half of the registry loop (see
// newRegistryAnalyzer): `load: "perP|frac|linear"` on every registration,
// respected by the run body's static class and by the bound row's formula.
var RepoLoadAnalyzer = newRegistryAnalyzer(loadAxis, LoadCostAnalyzer, "repoload",
	"registered algorithms must declare a load class that their run body's static classification and bound row respect")

// boundMarkerClass extracts the strongest load-class claim a bound row's
// formula makes: a √ or p^(…) term claims frac, a /p term claims perP, and
// anything else claims nothing (zero, the bottom — no constraint). The
// declared class must be at least the marker: a bound may be stated
// conservatively in /p terms while the declaration carries the honest frac
// class (RHier's Thm 3), but a bound advertising √p with a perP tag is
// drift.
func boundMarkerClass(bound string) costClass {
	switch {
	case strings.Contains(bound, "√"), strings.Contains(bound, "p^("):
		return loadFrac
	case strings.Contains(bound, "/p"):
		return loadPerP
	}
	return loadZero
}

// chargeIntrinsic recognizes the cluster charging methods and classifies
// their arguments in place. Recognition is syntactic — the method name on a
// receiver whose type is named "cluster" (case-insensitively) — so the
// intrinsics compose across packages without facts and the offline fixtures
// can stub the cluster type.
func chargeIntrinsic(fs *funcScope, call *ast.CallExpr) (costClass, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return loadZero, false
	}
	name := sel.Sel.Name
	if name != "Charge" && name != "ChargeRound" && name != "ChargeInput" {
		return loadZero, false
	}
	if !isClusterExpr(fs.info, sel.X) {
		return loadZero, false
	}
	switch {
	case name == "Charge" && len(call.Args) == 2:
		// Charge(s, n): the load is n's arithmetic shape.
		return loadExprClass(fs, call.Args[1], map[types.Object]bool{}), true
	case name == "ChargeInput" && len(call.Args) == 1:
		// ChargeInput(total): round-robin placement, ⌈total/p⌉ per server.
		return pDiv(loadExprClass(fs, call.Args[0], map[types.Object]bool{})), true
	case name == "ChargeRound" && len(call.Args) == 1:
		// ChargeRound(loads): the max element ever assigned into the slice.
		return sliceClass(fs, call.Args[0]), true
	}
	return loadZero, false
}

// isClusterExpr reports whether e's type (after pointer indirection) is a
// named type called "cluster", case-insensitively — mpc.Cluster in the real
// tree, the stub cluster in fixtures.
func isClusterExpr(info *types.Info, e ast.Expr) bool {
	t := info.TypeOf(e)
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && strings.EqualFold(named.Obj().Name(), "cluster")
}

// loadExprClass classifies the arithmetic shape of a charge magnitude:
//
//	compile-time constants, p itself        → const
//	x / p-expression                        → pDiv(x): linear drops to perP
//	x / Isqrt(p), x / Iroot(p, k)           → rootDiv(x): linear drops to frac
//	x % y                                   → class of y (a remainder is < y)
//	x + y, x - y, x * y                     → max (the product hole: a
//	                                          product of sublinear factors
//	                                          may exceed their max; the
//	                                          harness load test backstops it)
//	len/cap of a structural container       → const; of a data container → linear
//	single-assignment locals                → traced through their RHS
//	anything else (params, calls, fields)   → linear
func loadExprClass(fs *funcScope, e ast.Expr, visited map[types.Object]bool) costClass {
	e = ast.Unparen(e)
	if tv, ok := fs.info.Types[e]; ok && tv.Value != nil {
		return loadConst
	}
	switch v := e.(type) {
	case *ast.BasicLit:
		return loadConst
	case *ast.SelectorExpr:
		if v.Sel.Name == "P" {
			return loadConst // the server count is structure, not data
		}
		return loadLinear
	case *ast.Ident:
		obj := fs.info.Uses[v]
		if obj == nil || visited[obj] {
			return loadLinear
		}
		visited[obj] = true
		if rhss := fs.assigns[obj]; len(rhss) == 1 && rhss[0] != nil {
			return loadExprClass(fs, rhss[0], visited)
		}
		return loadLinear
	case *ast.BinaryExpr:
		switch v.Op {
		case token.QUO:
			num := loadExprClass(fs, v.X, visited)
			switch divisorKind(fs, v.Y) {
			case divP:
				return pDiv(num)
			case divRoot:
				return rootDiv(num)
			}
			return num // integer division never increases the numerator
		case token.REM:
			return loadExprClass(fs, v.Y, visited)
		default:
			return max(loadExprClass(fs, v.X, visited), loadExprClass(fs, v.Y, visited))
		}
	case *ast.UnaryExpr:
		return loadExprClass(fs, v.X, visited)
	case *ast.CallExpr:
		if isBuiltin(fs.info, v, "len") || isBuiltin(fs.info, v, "cap") {
			if len(v.Args) == 1 {
				if t := fs.info.TypeOf(v.Args[0]); t != nil {
					if lenBound(t) == boundConst {
						return loadConst
					}
					return loadLinear
				}
			}
		}
		if conv := conversionArg(fs.info, v); conv != nil {
			return loadExprClass(fs, conv, visited)
		}
		return loadLinear
	}
	return loadLinear
}

// pDiv steps a load class down by a division by p: an input-proportional
// magnitude becomes IN/p; already-sublinear magnitudes stay at perP (a
// sound upper bound — IN/p^c / p ≤ IN/p); structural magnitudes stay put.
func pDiv(class costClass) costClass {
	switch class {
	case loadLinear, loadFrac, loadPerP:
		return loadPerP
	}
	return class
}

// rootDiv steps a load class down by a division by a fractional power of p
// (Isqrt(p), Iroot(p, k)): linear becomes frac; perP stays perP (already
// smaller); structural magnitudes stay put.
func rootDiv(class costClass) costClass {
	switch class {
	case loadLinear, loadFrac:
		return loadFrac
	}
	return class
}

// divKind classifies a division's denominator.
type divKind int

const (
	divNone divKind = iota
	divP            // the server count p (or a constant multiple)
	divRoot         // a fractional power of p: Isqrt(p), Iroot(p, k)
)

// divisorKind classifies a divisor expression, tracing single-assignment
// locals (s := Isqrt(c.P); n / s).
func divisorKind(fs *funcScope, e ast.Expr) divKind {
	e = ast.Unparen(e)
	if isPExpr(fs, e, map[types.Object]bool{}) {
		return divP
	}
	switch v := e.(type) {
	case *ast.Ident:
		obj := fs.info.Uses[v]
		if obj == nil {
			return divNone
		}
		if rhss := fs.assigns[obj]; len(rhss) == 1 && rhss[0] != nil {
			return divisorKind(fs, rhss[0])
		}
	case *ast.CallExpr:
		if conv := conversionArg(fs.info, v); conv != nil {
			return divisorKind(fs, conv)
		}
		if fn := calleeFunc(fs.info, v); fn != nil && len(v.Args) >= 1 {
			switch fn.Name() {
			case "Isqrt", "IsqrtInt", "Iroot", "Ipow":
				if isPExpr(fs, v.Args[0], map[types.Object]bool{}) {
					return divRoot
				}
			}
		}
	}
	return divNone
}

// isPExpr reports whether e is the server count p — a selector named P, a
// single-assignment local bound to one, or either combined with
// compile-time constants ((n + p - 1) / p's denominator, 2*p).
func isPExpr(fs *funcScope, e ast.Expr, visited map[types.Object]bool) bool {
	e = ast.Unparen(e)
	switch v := e.(type) {
	case *ast.SelectorExpr:
		return v.Sel.Name == "P"
	case *ast.Ident:
		obj := fs.info.Uses[v]
		if obj == nil || visited[obj] {
			return false
		}
		visited[obj] = true
		if rhss := fs.assigns[obj]; len(rhss) == 1 && rhss[0] != nil {
			return isPExpr(fs, rhss[0], visited)
		}
		return false
	case *ast.BinaryExpr:
		xConst := isConstExpr(fs, v.X)
		yConst := isConstExpr(fs, v.Y)
		switch {
		case xConst && yConst:
			return false
		case xConst:
			return isPExpr(fs, v.Y, visited)
		case yConst:
			return isPExpr(fs, v.X, visited)
		}
		return false
	case *ast.CallExpr:
		if conv := conversionArg(fs.info, v); conv != nil {
			return isPExpr(fs, conv, visited)
		}
	}
	return false
}

// isConstExpr reports whether e has a compile-time constant value.
func isConstExpr(fs *funcScope, e ast.Expr) bool {
	tv, ok := fs.info.Types[ast.Unparen(e)]
	if ok && tv.Value != nil {
		return true
	}
	_, lit := ast.Unparen(e).(*ast.BasicLit)
	return lit
}

// conversionArg returns the operand of a type conversion (int(x),
// float64(x)), nil for real calls.
func conversionArg(info *types.Info, call *ast.CallExpr) ast.Expr {
	if len(call.Args) != 1 {
		return nil
	}
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		return call.Args[0]
	}
	return nil
}

// sliceClass classifies the per-server loads slice handed to ChargeRound:
// the max over every element assignment recorded for the slice variable
// (loads[s] = expr classifies expr; loads[s] += expr is an accumulation and
// classifies linear; loads[s]++ is const), on top of the slice's base class
// (born from make or a composite literal → its elements; anything else — a
// parameter, a function result — is input-proportional).
func sliceClass(fs *funcScope, e ast.Expr) costClass {
	e = ast.Unparen(e)
	id, ok := e.(*ast.Ident)
	if !ok {
		return loadLinear
	}
	obj := fs.info.Uses[id]
	if obj == nil {
		return loadLinear
	}
	class := loadLinear
	if rhss := fs.assigns[obj]; len(rhss) == 1 && rhss[0] != nil {
		switch rhs := ast.Unparen(rhss[0]).(type) {
		case *ast.CallExpr:
			if isBuiltin(fs.info, rhs, "make") {
				class = loadZero
			}
		case *ast.CompositeLit:
			class = loadZero
			for _, elt := range rhs.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					elt = kv.Value
				}
				class = max(class, loadExprClass(fs, elt, map[types.Object]bool{}))
			}
		}
	}
	for _, rhs := range fs.elemAssigns[obj] {
		if rhs == nil {
			return loadLinear // accumulation or untraceable element write
		}
		class = max(class, loadExprClass(fs, rhs, map[types.Object]bool{}))
	}
	return class
}
