// Package stats holds the paper's load statements as one table of
// expressions: each row is a bound with its id, the rounds it takes and the
// regime it holds in, and its expression both prints the formula and
// evaluates it, so the text a table shows and the number dispatch ranks by
// cannot disagree. This file is the only place a formula is spelled.
package stats

import (
	"fmt"
	"math"
	"strconv"

	"repro/internal/relation"
)

// Vars binds an expression's variables. OUT is |Q(R)|, or for a
// join-aggregate |Q_y(R)|, which its row spells OUT_y; LInstance is eq. 2's
// L_instance(p,R) of the reduced instance; Rels are the relations eq. 1's
// L_cartesian(p,R) ranges over, evaluated without them by a scalar proxy.
type Vars struct {
	IN        int
	OUT       int64
	P         int
	LInstance int64
	Rels      []*relation.Relation
}

// Expr is a load formula over Vars: the text the tables print and the
// number dispatch ranks by, built together by the constructors below, whose
// operators are exactly the ones the paper's bounds use: +, −, ·, /, √,
// powers, min and max.
type Expr struct {
	text     string
	strength int // how tightly text binds: 1 a sum, 2 a product, 3 a power, 4 an atom
	eval     func(Vars) float64
}

// String renders e as the tables print it.
func (e Expr) String() string { return e.text }

// Eval evaluates e at v. Every row is finite and ≥ 0 for all IN ≥ 0,
// OUT ≥ 0, p ≥ 1: the log term is clamped (logClamped) and k* is ≥ 1.
func (e Expr) Eval(v Vars) float64 { return e.eval(v) }

// wrap renders e where its context needs binding strength ctx,
// parenthesized when it binds more loosely.
func (e Expr) wrap(ctx int) string {
	if e.strength < ctx {
		return "(" + e.text + ")"
	}
	return e.text
}

func atom(text string, eval func(Vars) float64) Expr { return Expr{text, 4, eval} }

func num(c float64) Expr {
	return atom(strconv.FormatFloat(c, 'g', -1, 64), func(Vars) float64 { return c })
}

// infix joins x and y into an expression binding with strength s, y at
// strength ry (a divisor binds tighter than a factor).
func infix(x Expr, sep string, y Expr, s, ry int, f func(a, b float64) float64) Expr {
	return Expr{x.wrap(s) + sep + y.wrap(ry), s, func(v Vars) float64 { return f(x.eval(v), y.eval(v)) }}
}

func add(x, y Expr) Expr {
	return infix(x, " + ", y, 1, 1, func(a, b float64) float64 { return a + b })
}
func sub(x, y Expr) Expr {
	return infix(x, " − ", y, 1, 2, func(a, b float64) float64 { return a - b })
}
func mul(x, y Expr) Expr { return infix(x, "·", y, 2, 2, func(a, b float64) float64 { return a * b }) }
func div(x, y Expr) Expr { return infix(x, "/", y, 2, 3, func(a, b float64) float64 { return a / b }) }

func pow(x, y Expr) Expr {
	return Expr{x.wrap(4) + "^(" + y.text + ")", 3, func(v Vars) float64 { return math.Pow(x.eval(v), y.eval(v)) }}
}

func sqrt(x Expr) Expr {
	return atom("√"+x.wrap(4), func(v Vars) float64 { return math.Sqrt(x.eval(v)) })
}

// call renders a two-argument function such as min or max.
func call(name string, x, y Expr, f func(a, b float64) float64) Expr {
	return atom(name+"("+x.text+", "+y.text+")", func(v Vars) float64 { return f(x.eval(v), y.eval(v)) })
}

var (
	in    = atom("IN", func(v Vars) float64 { return float64(v.IN) })
	out   = atom("OUT", func(v Vars) float64 { return float64(v.OUT) })
	outY  = atom("OUT_y", out.eval)
	p     = atom("p", func(v Vars) float64 { return float64(v.P) })
	kStar = atom("k*", func(v Vars) float64 { return float64(KStar(v.IN, v.OUT)) })
	logIN = atom("log IN", func(v Vars) float64 { return logClamped(v.IN) })

	linear    = div(in, p)
	lInstance = atom("L_instance(p,R)", func(v Vars) float64 { return float64(v.LInstance) })
	// L_cartesian without the relations in hand is the linear floor or
	// per-server output counting over pairs, whichever is higher.
	cartesianProxy = call("max", linear, pow(div(out, p), div(num(1), num(2))), math.Max)
	lCartesian     = atom("L_cartesian(p,R)", func(v Vars) float64 {
		if v.Rels == nil || len(v.Rels) > maxCartesianRelations {
			return cartesianProxy.eval(v)
		}
		sizes := make([]int, len(v.Rels))
		for i, r := range v.Rels {
			sizes[i] = r.Size()
		}
		return cartesianLower(sizes, v.P)
	})
)

// BoundID names a row: the paper's theorem, corollary or equation number,
// or a prior result's citation. It is a string so the lint reads it.
type BoundID string

// Row is one statement: its expression, the round class its algorithm
// runs in (zero, const, log or loop — the rounds axis of the lint) and the
// regime it holds in.
type Row struct {
	Expr   Expr
	Rounds string
	Regime string
}

const (
	Linear         BoundID = "linear"
	Yannakakis     BoundID = "[2,25]"
	BinaryJoin     BoundID = "[8,18]"
	Thm3           BoundID = "Thm 3"
	OneRound       BoundID = "[26]"
	Thm4           BoundID = "Thm 4"
	Thm6           BoundID = "Thm 6"
	Thm7           BoundID = "Thm 7"
	Thm9           BoundID = "Thm 9"
	Thm11          BoundID = "Thm 11"
	WorstCaseLine3 BoundID = "[19,24]"
	Triangle       BoundID = "[24]"
	Eq1            BoundID = "eq. 1"
	Cor4           BoundID = "Cor. 4"
	Oracle         BoundID = "oracle"
)

// bounds is the table. Upper bounds are what the algorithms promise;
// lower bounds say so in their regime.
var bounds = map[BoundID]Row{
	Linear:     {linear, "const", "lower bound for every algorithm: each server receives its share of the input"},
	Yannakakis: {add(linear, div(out, p)), "const", "acyclic joins, MPC Yannakakis after a full reduction"},
	BinaryJoin: {add(linear, sqrt(div(out, p))), "const", "one binary join, output-optimal"},
	Thm3:       {add(linear, lInstance), "const", "r-hierarchical joins, instance-optimal"},
	OneRound:   {add(linear, lInstance), "const", "tall-flat joins in one round (BinHC)"},
	Thm4: {add(div(in, pow(p, div(num(1), call("max", num(1), sub(kStar, num(1)), math.Max)))), pow(div(out, p), div(num(1), kStar))),
		"const", "r-hierarchical joins, output-optimal; k* = ⌈log_IN OUT⌉"},
	Thm6: {call("min", sqrt(div(mul(in, out), mul(p, logIN))), div(in, sqrt(p)), math.Min),
		"const", "lower bound for the line-3 join, OUT ≥ IN"},
	Thm7: {add(linear, sqrt(div(mul(in, out), p))), "const", "acyclic joins; output-optimal while OUT ≤ p·IN"},
	Thm9: {add(linear, sqrt(div(mul(in, outY), p))), "const", "free-connex join-aggregates, OUT_y = |Q_y(R)|"},
	Thm11: {call("min", add(linear, div(out, mul(p, logIN))), div(in, pow(p, div(num(2), num(3)))), math.Min),
		"const", "lower bound for the triangle join, output-sensitive"},
	WorstCaseLine3: {div(in, sqrt(p)), "const", "line-3 join, worst-case optimal; the tight bound once OUT > p·IN"},
	Triangle:       {div(in, pow(p, div(num(2), num(3)))), "const", "triangle join (HyperCube), skew-free instances"},
	Eq1:            {lCartesian, "const", "Cartesian products, instance-optimal"},
	Cor4:           {linear, "const", "counting |Q(R)| of an acyclic join"},
	Oracle:         {in, "zero", "the sequential oracle gathers the input on one server"},
}

// Lookup returns the row with the given id.
func Lookup(id string) (Row, bool) {
	r, ok := bounds[BoundID(id)]
	return r, ok
}

func (id BoundID) row() Row {
	r, ok := bounds[id]
	if !ok {
		panic(fmt.Sprintf("stats: no bound row %q", string(id)))
	}
	return r
}

// Eval evaluates the row's expression at v.
func (id BoundID) Eval(v Vars) float64 { return id.row().Expr.Eval(v) }

// Formula renders the row's expression.
func (id BoundID) Formula() string { return id.row().Expr.String() }

// String is the formula with its citation, e.g. "IN/p + OUT/p ([2,25])".
func (id BoundID) String() string { return id.Formula() + " (" + string(id) + ")" }

// priced maps the engine catalog's algorithm names to the row each is
// priced by at dispatch.
var priced = map[string]BoundID{
	"yannakakis": Yannakakis,
	"acyclic":    Thm7,
	"line3":      Thm7,
	"line3wc":    WorstCaseLine3,
	"rhier":      Thm4,
	"binhc":      Thm4,
	"hypercube":  Eq1,
	"triangle":   Triangle,
	"naive":      Oracle,
	"count":      Cor4,
	"aggregate":  Thm9,
}

// Priced returns the row the named algorithm is priced by at dispatch;
// engine.Register refuses a name that has none.
func Priced(algo string) (BoundID, bool) {
	id, ok := priced[algo]
	return id, ok
}

// Predict evaluates the named algorithm's row at (IN, OUT estimate, p),
// without the instance, and reports false for names Priced lacks.
func Predict(algo string, in int, out int64, p int) (float64, bool) {
	id, ok := priced[algo]
	if !ok {
		return 0, false
	}
	return id.Eval(Vars{IN: in, OUT: out, P: p}), true
}

// KStar is ⌈log_IN OUT⌉, clamped to ≥ 1.
func KStar(in int, out int64) int {
	if in <= 1 || out <= 1 {
		return 1
	}
	k := int(math.Ceil(math.Log(float64(out)) / math.Log(float64(in))))
	if k < 1 {
		k = 1
	}
	return k
}

// logClamped is the log IN of the lower-bound denominators, clamped to ≥ 1:
// a raw ln IN is 0 at IN=1 and -Inf at IN=0, which would turn a bound into
// ±Inf, or NaN at OUT=0, and poison every table and argmin it reaches.
func logClamped(in int) float64 {
	if in <= 2 {
		return 1 // ln 2 ≈ 0.69 rounds up: log factors are ≥ 1 in the tables
	}
	return math.Log(float64(in))
}

// maxCartesianRelations caps cartesianLower's enumeration of all 2ⁿ−1
// subsets: past it the loop is intractable long before n ≥ 63 would wrap
// the `1 << n` mask to zero iterations and a silent 0.
const maxCartesianRelations = 24

// cartesianLower is eq. 1's L_cartesian: max_S (Π_{i∈S} N_i / p)^{1/|S|}.
// It panics past maxCartesianRelations relations.
func cartesianLower(sizes []int, p int) float64 {
	best := 0.0
	n := len(sizes)
	if n > maxCartesianRelations {
		panic(fmt.Sprintf("stats: cartesianLower over %d relations (cap %d: the subset maximization is O(2^n) and its mask wraps at n=63)",
			n, maxCartesianRelations))
	}
	for mask := 1; mask < 1<<n; mask++ {
		prod, cnt := 1.0, 0
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				prod *= float64(sizes[i])
				cnt++
			}
		}
		v := math.Pow(prod/float64(p), 1/float64(cnt))
		if v > best {
			best = v
		}
	}
	return best
}

// Ratio guards against division blowups in report tables: a zero or NaN
// bound (the latter only from caller arithmetic) reads +Inf.
func Ratio(measured int, bound float64) float64 {
	if bound <= 0 || math.IsNaN(bound) {
		return math.Inf(1)
	}
	return float64(measured) / bound
}
