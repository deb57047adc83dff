package stats

// Dispatch-time load prediction: the quantitative half of the engine's
// algorithm catalog. Every catalog entry carries a repoload-verified load
// class (perP, frac, linear) and a Figure 1 bound; this file maps each
// entry's name to the formula behind that bound so the dispatcher can
// rank candidates by a predicted per-server load instead of by the static
// preference order alone. Predictions are evaluated at (IN, OUT estimate,
// p) and are finite for all IN ≥ 0, OUT ≥ 0, p ≥ 1 — the bound functions
// in bounds.go clamp their log/overflow edge cases, so a degenerate
// instance can never poison the ranking with NaN (which compares false
// against everything and would otherwise win or lose argmin ties
// nondeterministically).

// The bound formulas the engine's catalog and the predictors below both
// name: each is spelled once, here.
const (
	YannakakisFormula = "IN/p + OUT/p"
	AcyclicFormula    = "IN/p + √(IN·OUT/p)"
	AggregateFormula  = "IN/p + √(IN·OUT_y/p)"
	CartesianFormula  = "L_cartesian(p,R) (eq. 1)"
	TriangleFormula   = "IN/p^(2/3)"
)

// Prediction is one dispatch-time load prediction: the predicted
// per-server load and the formula that produced it.
type Prediction struct {
	// Load is the predicted per-server load, always finite and ≥ 0.
	Load float64
	// Formula names the bound formula evaluated, for report tables.
	Formula string
}

// predictors maps the engine catalog's algorithm names to the formula
// behind each entry's declared Figure 1 bound. A slice, not a map: lookups
// scan in declaration order, so there is no map-iteration order anywhere
// near dispatch. engine.Register refuses a name that has no row here.
var predictors = []struct {
	algo    string
	formula string
	eval    func(in int, out int64, p int) float64
}{
	{"yannakakis", YannakakisFormula, Yannakakis},
	{"acyclic", AcyclicFormula, Acyclic},
	{"line3", AcyclicFormula, Acyclic},
	{"line3wc", "IN/√p", func(in int, _ int64, p int) float64 { return WorstCaseLine(in, p) }},
	{"rhier", "IN/p^{1/(k*−1)} + (OUT/p)^{1/k*}", RHierOutput},
	{"binhc", "IN/p^{1/(k*−1)} + (OUT/p)^{1/k*}", RHierOutput},
	// The scalar proxy for eq. 1: per-server output counting at m=2 plus
	// the linear floor. The engine refines this with CartesianLower over
	// the actual relation sizes when the instance is in hand.
	{"hypercube", CartesianFormula, func(in int, out int64, p int) float64 {
		return max2(Linear(in, p), PerServerOutputLower(out, p, 2))
	}},
	{"triangle", TriangleFormula, func(in int, _ int64, p int) float64 { return TriangleWorstCase(in, p) }},
	{"naive", "IN (sequential gather)", func(in int, _ int64, _ int) float64 { return float64(in) }},
	{"count", "IN/p", func(in int, _ int64, p int) float64 { return Linear(in, p) }},
	{"aggregate", AggregateFormula, Acyclic},
}

// Predict evaluates the named algorithm's declared-bound formula at
// (IN, OUT estimate, p) and reports false for names this package has no
// formula for.
func Predict(algo string, in int, out int64, p int) (Prediction, bool) {
	for _, pr := range predictors {
		if pr.algo == algo {
			return Prediction{Load: pr.eval(in, out, p), Formula: pr.formula}, true
		}
	}
	return Prediction{}, false
}

func max2(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
