package harness

import (
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/hypergraph"
	"repro/internal/mpc"
)

// roundsHomes builds, per registered algorithm, an instance it applies to
// at base input size n (mirroring engine_test's home instances, but
// scalable so the IN-independence of round counts can be observed).
func roundsHomes(n int) map[string]*core.Instance {
	rng := mpc.NewRng(2019)
	return map[string]*core.Instance{
		"yannakakis": gen.ForQuery(rng, hypergraph.LineK(4), n, 6),
		"acyclic":    gen.ForQuery(rng, hypergraph.Fig5Example(), n, 4),
		"line3":      gen.Line3Random(rng, n, 2*n),
		"line3wc":    gen.Line3Random(rng, n, 2*n),
		"rhier":      gen.RHierSkewed(rng, 2, 8, n),
		"binhc":      gen.TallFlatSkewed(8, n),
		"hypercube":  gen.CartesianSizes(n/32, 8, 4),
		"triangle":   gen.TriangleRandom(rng, n, 2*n),
		"naive":      gen.ForQuery(rng, hypergraph.Line2(), n, 6),
		"count":      gen.Line3Random(rng, n, 2*n),
		"aggregate":  gen.Line3Random(rng, n, 2*n),
	}
}

// observedRounds runs every registered algorithm on its home at input
// size n and returns name → Result.Rounds.
func observedRounds(t *testing.T, n int) map[string]int {
	t.Helper()
	homes := roundsHomes(n)
	out := map[string]int{}
	for _, a := range engine.All() {
		in := homes[a.Name()]
		if in == nil {
			t.Errorf("%s: no home instance; extend roundsHomes", a.Name())
			continue
		}
		job := engine.Job{In: in, P: 16, Seed: 2019}
		if a.Name() == "aggregate" {
			job.GroupBy = hypergraph.NewAttrSet(2, 3)
		}
		res, err := engine.Run(a, job)
		if err != nil {
			t.Errorf("%s: %v", a.Name(), err)
			continue
		}
		out[a.Name()] = res.Rounds
	}
	return out
}

// TestObservedRoundsRespectDeclaredClass is the dynamic half of the round
// contract: the repobound analyzer proves each adapter's run body cannot
// reach charges beyond its declared class, and this test checks the
// declaration against what the simulator actually charged across the
// experiment matrix. zero means no rounds at all; const means a round
// count set by the query structure, not the input size — growing the
// input 16× must leave it flat (a log-class algorithm would gain a factor
// ~1.4, a loop-class one ~16×). Slack of max(4, small/8) absorbs
// data-dependent branching (heavy/light splits shift a few rounds) while
// still failing on any systematic growth.
func TestObservedRoundsRespectDeclaredClass(t *testing.T) {
	const small, large = 1 << 9, 1 << 13
	atSmall := observedRounds(t, small)
	atLarge := observedRounds(t, large)

	for _, a := range engine.All() {
		name := a.Name()
		class := a.RoundClass()
		s, okS := atSmall[name]
		l, okL := atLarge[name]
		if !okS || !okL {
			continue // run failure already reported
		}
		switch class {
		case "zero":
			if s != 0 || l != 0 {
				t.Errorf("%s: declared zero rounds but charged %d (IN=%d) and %d (IN=%d)", name, s, small, l, large)
			}
		case "const":
			if s == 0 && l == 0 {
				t.Errorf("%s: declared const rounds but never charged; declare zero instead", name)
			}
			slack := s / 8
			if slack < 4 {
				slack = 4
			}
			if l > s+slack {
				t.Errorf("%s: declared const rounds but grew from %d (IN=%d) to %d (IN=%d); rounds must not scale with the input", name, s, small, l, large)
			}
		case "log", "loop":
			// No registered algorithm declares these today; growing past
			// const is exactly what the declaration permits, so there is
			// nothing to pin beyond the static check.
		default:
			t.Errorf("%s: declared unparseable round class %q", name, class)
		}
	}
}
