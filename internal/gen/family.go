package gen

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/hypergraph"
	"repro/internal/mpc"
	"repro/internal/primitives"
	"repro/internal/relation"
)

// Family is a named instance family: one entry per workload shape used by
// the paper's experiments. The engine, cmd/joinrun and the harness all
// resolve families through this registry, so a family name means the same
// instance everywhere.
//
// Build receives the target input size `in` and (where the family is
// output-controlled) the target output size `out`; families that derive
// their parameters from `in` alone ignore `out`, and deterministic families
// ignore `rng`.
type Family struct {
	Name  string
	Note  string
	Build func(rng *mpc.Rng, in, out int) *core.Instance
}

var families = map[string]Family{}

// RegisterFamily adds f to the registry; duplicate names panic at init.
func RegisterFamily(f Family) {
	if f.Name == "" || f.Build == nil {
		panic("gen: RegisterFamily needs a name and a builder")
	}
	if _, dup := families[f.Name]; dup {
		panic(fmt.Sprintf("gen: duplicate family %q", f.Name))
	}
	families[f.Name] = f
}

// Families returns every registered family, sorted by name.
func Families() []Family {
	out := make([]Family, 0, len(families))
	for _, f := range families {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// FamilyNames returns the registered family names, sorted.
func FamilyNames() []string {
	out := make([]string, 0, len(families))
	for _, f := range Families() {
		out = append(out, f.Name)
	}
	return out
}

// Build constructs an instance of the named family. The sizes are
// unchecked input wherever they come from a command line: in < 1 or
// out < 0 is an error here, before any family's builder divides by them.
func Build(name string, rng *mpc.Rng, in, out int) (*core.Instance, error) {
	f, ok := families[name]
	if !ok {
		return nil, fmt.Errorf("gen: unknown instance family %q (have %v)", name, FamilyNames())
	}
	if in < 1 || out < 0 {
		return nil, fmt.Errorf("gen: family %q: invalid sizes in=%d out=%d (need in ≥ 1, out ≥ 0)", name, in, out)
	}
	return f.Build(rng, in, out), nil
}

func init() {
	RegisterFamily(Family{
		Name: "random",
		Note: "Figure 4 random line-3 lower-bound instance",
		Build: func(rng *mpc.Rng, in, out int) *core.Instance {
			return Line3Random(rng, in, out)
		},
	})
	RegisterFamily(Family{
		Name: "hard",
		Note: "Figure 3 hard instance for the Yannakakis algorithm",
		Build: func(_ *mpc.Rng, in, out int) *core.Instance {
			return YannakakisHard(in, out)
		},
	})
	RegisterFamily(Family{
		Name: "doubled",
		Note: "Figure 3 doubled hard instance (no good join order)",
		Build: func(_ *mpc.Rng, in, out int) *core.Instance {
			return YannakakisHardDoubled(in, out)
		},
	})
	RegisterFamily(Family{
		Name: "rhier",
		Note: "skewed r-hierarchical hub star R1(A)⋈R2(A,B)⋈R3(B)",
		Build: func(rng *mpc.Rng, in, _ int) *core.Instance {
			return RHierSkewed(rng, 4, primitives.IsqrtInt(in), in/2)
		},
	})
	RegisterFamily(Family{
		Name: "tallflat",
		Note: "tall-flat keyed product with one hub key",
		Build: func(_ *mpc.Rng, in, _ int) *core.Instance {
			return TallFlatSkewed(primitives.IsqrtInt(4*in), in/2)
		},
	})
	RegisterFamily(Family{
		Name: "triangle",
		Note: "Figure 6 random triangle instance",
		Build: func(rng *mpc.Rng, in, out int) *core.Instance {
			return TriangleRandom(rng, in, out)
		},
	})
}

// ForQuery builds a uniform instance for an arbitrary query: n tuples per
// relation, every attribute drawn from [0, dom). Used by the engine's
// dispatch tests and benchmarks, which need data for every catalog query.
func ForQuery(rng *mpc.Rng, q *hypergraph.Hypergraph, n, dom int) *core.Instance {
	rels := make([]*relation.Relation, len(q.Edges))
	for i, e := range q.Edges {
		rels[i] = Uniform(rng, fmt.Sprintf("R%d", i+1), e.Schema(), n, dom)
	}
	return core.NewInstance(q, rels...)
}
