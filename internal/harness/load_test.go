package harness

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/hypergraph"
)

// observedLoads runs every registered algorithm on its home instance at
// input size n and cluster width p, returning name → Result.Load.
func observedLoads(t *testing.T, n, p int) map[string]int {
	t.Helper()
	homes := roundsHomes(n)
	out := map[string]int{}
	for _, a := range engine.All() {
		in := homes[a.Name()]
		if in == nil {
			t.Errorf("%s: no home instance; extend roundsHomes", a.Name())
			continue
		}
		job := engine.Job{In: in, P: p, Seed: 2019}
		if a.Name() == "aggregate" {
			job.GroupBy = hypergraph.NewAttrSet(2, 3)
		}
		res, err := engine.Run(a, job)
		if err != nil {
			t.Errorf("%s: %v", a.Name(), err)
			continue
		}
		out[a.Name()] = res.Load
	}
	return out
}

// TestObservedLoadRespectsDeclaredClass is the dynamic half of the load
// contract: the repoload analyzer proves each adapter's run body cannot
// reach charges beyond its declared load class, and this test checks the
// declaration against what the simulator actually charged. Widening the
// cluster 8× at fixed IN must shed per-server load consistent with the
// class: a perP algorithm (load ~ IN/p + OUT/p) sheds close to the full
// factor (≥ 3× guards against the O(p) coordinator/directory terms that
// ride along), a frac algorithm (IN/√p, IN/p^(2/3), L_instance) sheds a
// smaller but still real factor, and a linear algorithm — one that gathers
// or broadcasts the whole input by design — promises nothing, so there is
// nothing to pin beyond the static check. The test also closes the tag
// loop at runtime: every registered adapter must declare one of the three
// classes the repoload analyzer accepts, carried into Result.LoadClass.
func TestObservedLoadRespectsDeclaredClass(t *testing.T) {
	const in = 1 << 12
	const pSmall, pLarge = 4, 32
	atSmall := observedLoads(t, in, pSmall)
	atLarge := observedLoads(t, in, pLarge)

	for _, a := range engine.All() {
		name := a.Name()
		class := a.LoadClass()
		s, okS := atSmall[name]
		l, okL := atLarge[name]
		if !okS || !okL {
			continue // run failure already reported
		}
		switch class {
		case "perP":
			if l*3 > s {
				t.Errorf("%s: declared perP load but widening p %d→%d only shrank load %d→%d (want ≥ 3×)",
					name, pSmall, pLarge, s, l)
			}
		case "frac":
			if l >= s {
				t.Errorf("%s: declared frac load but widening p %d→%d did not shrink load %d→%d",
					name, pSmall, pLarge, s, l)
			}
		case "linear":
			// A gather or broadcast keeps the whole input on one server at
			// any width; flat load is exactly what the declaration admits.
		default:
			t.Errorf("%s: declared load class %q is not perP, frac, or linear", name, class)
		}
	}
}
