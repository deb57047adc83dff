package engine

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/hypergraph"
	"repro/internal/stats"
)

// Candidate is one dispatch candidate's scorecard: what the dispatcher
// predicted for it, or why it could not run. Result.Candidates carries the
// ranked list so mispredictions are visible next to the measured load.
type Candidate struct {
	// Name is the catalog name of the candidate.
	Name string
	// Predicted is the predicted per-server load (+Inf for candidates that
	// cannot run, 0 when dispatch ran without statistics).
	Predicted float64
	// PredictedBy names the stats formula behind Predicted.
	PredictedBy string
	// Rejected is why the candidate cannot run ("" when it can): Applies
	// rejects the query's shape.
	Rejected string

	spec *Spec
}

// candidates scores every catalog entry listing q's class: runnable
// candidates get a prediction from pred (nil means "no statistics" — every
// runnable candidate predicts 0 and the ranking degenerates to the
// preference order), rejected ones record why. The returned list is
// ranked: runnable candidates by ascending predicted load, exact load ties
// by declared round class (cost mode only — without statistics the round
// class must not override the preference order), and what remains tied
// falls to the catalog's preference order (the sort is stable); rejected
// candidates follow in preference order.
func candidates(q *hypergraph.Hypergraph, pred func(Algorithm) (float64, string)) []Candidate {
	cls := q.Classify()
	out := make([]Candidate, 0, 4) // the longest Figure 1 row
	for _, a := range registered() {
		if !slices.Contains(a.classes, cls) {
			continue
		}
		c := Candidate{Name: a.name, Predicted: math.Inf(1), spec: a}
		switch {
		case !a.applies(q):
			c.Rejected = "Applies rejects the query"
		case pred == nil:
			c.Predicted = 0
		default:
			c.Predicted, c.PredictedBy = pred(a)
			if math.IsNaN(c.Predicted) || c.Predicted < 0 {
				// The stats contract says this cannot happen; if a
				// predictor breaks it anyway, rank last deterministically
				// instead of letting NaN poison the argmin (NaN compares
				// false against everything).
				c.Predicted = math.Inf(1)
			}
		}
		out = append(out, c)
	}
	sort.SliceStable(out, func(i, j int) bool {
		ri, rj := out[i].Rejected == "", out[j].Rejected == ""
		if ri != rj {
			return ri // runnable before rejected
		}
		if !ri {
			return false // rejected candidates keep preference order
		}
		if out[i].Predicted != out[j].Predicted {
			return out[i].Predicted < out[j].Predicted
		}
		return pred != nil && roundRank(out[i].spec.rounds) < roundRank(out[j].spec.rounds)
	})
	return out
}

// roundRank orders the repobound round classes for tiebreaks: at equal
// predicted load, fewer communication rounds win.
func roundRank(class string) int {
	switch class {
	case "zero":
		return 0
	case "const":
		return 1
	case "log":
		return 2
	case "loop":
		return 3
	default:
		return 4
	}
}

// pick ranks q's candidates and returns the first runnable one with the
// scorecard, or an error carrying the full scorecard: which candidates
// were tried and why each was rejected.
func pick(q *hypergraph.Hypergraph, pred func(Algorithm) (float64, string)) (Algorithm, []Candidate, error) {
	cands := candidates(q, pred)
	if len(cands) > 0 && cands[0].Rejected == "" {
		return cands[0].spec, cands, nil
	}
	parts := make([]string, len(cands))
	for i, c := range cands {
		parts[i] = fmt.Sprintf("%s: %s", c.Name, c.Rejected)
	}
	return nil, cands, fmt.Errorf("engine: no registered algorithm covers %v (class %s); candidates tried: %s",
		q, q.Classify(), strings.Join(parts, "; "))
}

// Auto returns the algorithm the engine routes q to when no statistics
// are in hand: structural dispatch, equivalent to AutoCost with a
// predictor that abstains — every runnable candidate ties at 0 and the
// Figure 1 preference order decides. Callers holding an instance should
// dispatch through AutoCost (or AutoRun), which ranks the same candidates
// by predicted load.
func Auto(q *hypergraph.Hypergraph) (Algorithm, error) {
	a, _, err := pick(q, nil)
	return a, err
}

// AutoCost is cost-based dispatch: it scores every candidate whose
// Applies accepts the query with a predicted per-server load — the
// algorithm's repoload-verified load class refined by the stats formula
// for its declared Figure 1 bound, evaluated at (IN, outEst, p) — and
// returns the argmin together with the full ranked scorecard. outEst < 0
// asks for EstimateOut's statistics-only estimate; the harness passes the
// memoized naive-count oracle instead. Dispatch is deterministic: the
// predictions are pure functions of (IN, outEst, p), ties fall to the
// declared round class and then the Figure 1 preference order, and no
// data-plane width or worker count is consulted.
func AutoCost(in *core.Instance, p int, outEst int64) (Algorithm, []Candidate, error) {
	if p <= 0 {
		p = DefaultP
	}
	if outEst < 0 {
		outEst = EstimateOut(in)
	}
	return pick(in.Q, func(a Algorithm) (float64, string) {
		return PredictLoad(a, in, outEst, p)
	})
}

// PredictLoad predicts the per-server load of running a on in at cluster
// width p, assuming the run emits outEst results: the stats formula for
// the algorithm's declared bound, sharpened by the entry's own refinement
// where it has one (hypercube's eq. 1 is evaluated over the actual
// relation sizes). The returned value is finite for every IN ≥ 0, OUT ≥ 0.
func PredictLoad(a Algorithm, in *core.Instance, outEst int64, p int) (float64, string) {
	pr, _ := stats.Predict(a.name, in.IN(), outEst, p) // Register checked the row exists
	if a.refine != nil {
		pr.Load = a.refine(in, p, pr.Load)
	}
	return pr.Load, pr.Formula
}

// EstimateOut is the dispatcher's statistics-only estimate of |Q(R)|: the
// product of relation sizes over a greedy edge cover of the query's
// attributes (the integral relaxation of the AGM bound — an upper
// estimate, since join predicates only filter a cover's product). It
// reads relation sizes, never tuples, runs in O(edges² · attrs), and
// saturates at 2⁶² instead of overflowing. An empty relation empties the
// join exactly.
func EstimateOut(in *core.Instance) int64 {
	const sat = int64(1) << 62
	for _, r := range in.Rels {
		if r.Size() == 0 {
			return 0
		}
	}
	uncovered := in.Q.Attrs()
	est := int64(1)
	for len(uncovered) > 0 {
		best, bestGain, bestSize := -1, 0, 0
		for i, e := range in.Q.Edges {
			gain := e.IntersectSize(uncovered)
			if gain == 0 {
				continue
			}
			sz := in.Rels[i].Size()
			if best < 0 || gain > bestGain || (gain == bestGain && sz < bestSize) {
				best, bestGain, bestSize = i, gain, sz
			}
		}
		if best < 0 {
			break // unreachable on a valid instance: every attr has an edge
		}
		uncovered = uncovered.Minus(in.Q.Edges[best])
		if sz := int64(in.Rels[best].Size()); sz > 1 {
			if est > sat/sz {
				return sat
			}
			est *= sz
		}
	}
	return est
}

// Route names Auto's structural choice for q, or "" when nothing covers
// it. Display helper for the classify command and the examples.
func Route(q *hypergraph.Hypergraph) string {
	a, err := Auto(q)
	if err != nil {
		return ""
	}
	return a.Name()
}
