package harness

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/hypergraph"
	"repro/internal/mpc"
	"repro/internal/runtime"
	"repro/internal/stats"
)

// renderDispatch runs cost-based dispatch over the full catalog at the
// given data-plane width and renders every dispatch observable — the pick,
// the predicted and measured loads, and the complete ranked scorecard —
// into one string, asserting per run that the pick's Applies accepts the
// query and the predicted-vs-actual ratio stays inside the pinned band.
func renderDispatch(t *testing.T, width int) string {
	t.Helper()
	prev := runtime.SetParallelism(width)
	defer runtime.SetParallelism(prev)
	s := smallScale()
	var b strings.Builder
	for i, e := range hypergraph.Catalog() {
		in := gen.ForQuery(mpc.NewChildRng(s.Seed, i), e.Q, fig1N, fig1Dom)
		res, err := engine.AutoRun(s.job(in, core.NaiveCount(in)))
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		a, ok := engine.Lookup(res.Algorithm)
		if !ok || !a.Applies(e.Q) {
			t.Errorf("%s: cost pick %q does not apply to the query", e.Name, res.Algorithm)
		}
		// The prediction band: cost models may overpredict by the slack the
		// bound formulas build in, but a load more than mispredSlack above
		// the prediction (or a prediction 64× above the load) means the
		// formula and the implementation have drifted apart.
		if r := stats.Ratio(res.Load, res.Predicted); r > mispredSlack || r < 1.0/64 {
			t.Errorf("%s: L=%d vs predicted %.1f (ratio %.3f) outside [1/64, %v]",
				e.Name, res.Load, res.Predicted, r, mispredSlack)
		}
		// Where cost dispatch agrees with the structural route, the run must
		// be byte-identical to classification-order dispatch: the scorecard
		// is bookkeeping, never a behavioural input.
		if res.Algorithm == engine.Route(e.Q) {
			direct, err := engine.RunNamed(res.Algorithm, s.job(in, core.NaiveCount(in)))
			if err != nil {
				t.Fatalf("%s: direct %s: %v", e.Name, res.Algorithm, err)
			}
			if res.OUT != direct.OUT || res.Load != direct.Load || res.Rounds != direct.Rounds {
				t.Errorf("%s: AutoRun (OUT=%d L=%d R=%d) != structural run (OUT=%d L=%d R=%d)",
					e.Name, res.OUT, res.Load, res.Rounds, direct.OUT, direct.Load, direct.Rounds)
			}
		}
		fmt.Fprintf(&b, "%s pick=%s pred=%.4f by=%q L=%d rounds=%d flag=%s\n",
			e.Name, res.Algorithm, res.Predicted, res.PredictedBy, res.Load, res.Rounds,
			dispatchFlag(res.Load, res.Predicted))
		for _, c := range res.Candidates {
			fmt.Fprintf(&b, "  %s pred=%.4f by=%q rejected=%q\n", c.Name, c.Predicted, c.PredictedBy, c.Rejected)
		}
	}
	return b.String()
}

// TestDispatchAccuracySweep is cost-based dispatch's end-to-end contract
// over the catalog: every pick applies, every prediction lands inside the
// slack band, AutoRun matches classification-order dispatch wherever the
// two agree — and the full dispatch rendering is byte-identical at
// data-plane widths 1, 2 and 8 (predictions read statistics, never the
// parallel execution).
func TestDispatchAccuracySweep(t *testing.T) {
	serial := renderDispatch(t, 1)
	for _, w := range []int{2, 8} {
		if got := renderDispatch(t, w); got != serial {
			t.Fatalf("width %d dispatch differs from serial:\n--- width=1 ---\n%s\n--- width=%d ---\n%s",
				w, serial, w, got)
		}
	}
}
