package engine

import (
	"repro/internal/core"
	"repro/internal/hypergraph"
	"repro/internal/mpc"
	"repro/internal/relation"
	"repro/internal/stats"
)

// Spec is everything the engine knows about one algorithm, written once
// in the catalog below: callers reach algorithms through
// Lookup/Auto/AutoCost, never through per-algorithm switch statements. The
// name doubles as the key into stats.Predict — the quantitative formula
// behind the declared bound — and Register refuses a name stats does not
// know.
type Spec struct {
	name string
	// bound names the Figure 1 load bound the algorithm tracks.
	bound string
	// rounds is the machine-checkable round class (zero, const, log, or
	// loop): the repobound analyzer verifies the run body's static class
	// stays within it, and the harness checks observed Result.Rounds
	// against it across the experiment matrix.
	rounds string
	// load is the machine-checkable load class (perP, frac, or linear):
	// the repoload analyzer verifies the run body's static load class
	// stays within it and the bound prose claims nothing stronger, and
	// the harness checks observed Result.Load scaling against it.
	load string
	// fullJoin marks algorithms whose emissions are the full join result,
	// i.e. whose OUT the naive oracle can verify. Scalar algorithms (count)
	// and aggregates emit different cardinalities.
	fullJoin bool
	// oracle marks the verification oracle itself: CheckOracle against it
	// would just run the same sequential join twice.
	oracle bool
	// classes are the Figure 1 classes whose dispatch candidates include
	// the algorithm (none: only ever run by name); applies reports whether
	// its guarantee covers the query — shape and class checks, never data.
	classes []hypergraph.Class
	applies func(q *hypergraph.Hypergraph) bool
	// run executes on job.Cluster and returns the distributed result.
	run func(job Job) (*mpc.Dist, error)
	// refine, when set, sharpens the scalar stats prediction with the
	// instance in hand.
	refine func(in *core.Instance, p int, scalar float64) float64
}

// Algorithm is how callers hold a catalog entry.
type Algorithm = *Spec

func (a *Spec) Name() string                          { return a.name }
func (a *Spec) Bound() string                         { return a.bound }
func (a *Spec) RoundClass() string                    { return a.rounds }
func (a *Spec) LoadClass() string                     { return a.load }
func (a *Spec) Applies(q *hypergraph.Hypergraph) bool { return a.applies(q) }
func (a *Spec) Run(job Job) (*mpc.Dist, error)        { return a.run(job) }

// IsFullJoin reports whether a's emissions are the full join result (and
// therefore oracle-verifiable).
func IsFullJoin(a Algorithm) bool { return a.fullJoin }

func isRHier(q *hypergraph.Hypergraph) bool {
	return q.IsAcyclic() && q.IsRHierarchical()
}

func anyQuery(*hypergraph.Hypergraph) bool { return true }

// The catalog is the paper's Figure 1 hierarchy as routing logic. Entries
// register most specialized (cheapest guarantee) first, and the candidate
// set for a class is the entries listing it, in this order; cost-based
// dispatch (AutoCost) ranks the candidates by predicted per-server load
// and this order is the deterministic tiebreak, so shape-restricted
// entries (hypercube for products, line3 for chains, triangle) win ties
// against the class-general ones when the query matches their shape.
//
//	tall-flat      → one-round BinHC (instance-optimal in one round, [26])
//	hierarchical   → HyperCube on products (eq. 1), else RHier (§3.2)
//	r-hierarchical → RHier (IN/p + L_instance, Thm 3)
//	acyclic        → Line3 on chains, else AcyclicJoin (§5.1, Thm 7)
//	cyclic         → HyperCube triangle (§7), else the sequential oracle
func init() {
	everyAcyclic := []hypergraph.Class{hypergraph.TallFlat, hypergraph.Hierarchical, hypergraph.RHierarchical, hypergraph.Acyclic}

	Register(&Spec{
		name: "binhc", bound: "IN/p + degree shares (Table 1)", load: "frac", rounds: "const", fullJoin: true,
		classes: []hypergraph.Class{hypergraph.TallFlat}, applies: isRHier,
		run: func(job Job) (*mpc.Dist, error) {
			return core.BinHC(job.Cluster, job.In, job.Seed, job.Reduce), nil
		},
	})
	Register(&Spec{
		name: "hypercube", bound: stats.CartesianFormula, load: "frac", rounds: "const", fullJoin: true,
		classes: []hypergraph.Class{hypergraph.Hierarchical}, applies: core.IsProductQuery,
		run: func(job Job) (*mpc.Dist, error) {
			return core.HyperCubeProduct(job.Cluster, job.In, job.Seed), nil
		},
		// Eq. 1 over the actual relation sizes.
		refine: func(in *core.Instance, p int, scalar float64) float64 {
			if len(in.Rels) > stats.MaxCartesianRelations {
				return scalar
			}
			sizes := make([]int, len(in.Rels))
			for i, r := range in.Rels {
				sizes[i] = r.Size()
			}
			return stats.CartesianLower(sizes, p)
		},
	})
	Register(&Spec{
		name: "rhier", bound: "IN/p + L_instance(p,R)", load: "frac", rounds: "const", fullJoin: true,
		classes: []hypergraph.Class{hypergraph.TallFlat, hypergraph.Hierarchical, hypergraph.RHierarchical}, applies: isRHier,
		run: func(job Job) (*mpc.Dist, error) {
			return core.RHier(job.Cluster, job.In, job.Seed), nil
		},
	})
	Register(&Spec{
		name: "line3", bound: stats.AcyclicFormula, load: "frac", rounds: "const", fullJoin: true,
		classes: []hypergraph.Class{hypergraph.Acyclic}, applies: core.IsLine3Query,
		run: func(job Job) (*mpc.Dist, error) {
			return core.Line3WithTau(job.Cluster, job.In, job.Tau, job.Seed), nil
		},
	})
	Register(&Spec{
		name: "line3wc", bound: "IN/√p (worst-case)", load: "frac", rounds: "const", fullJoin: true,
		applies: core.IsLine3Query,
		run: func(job Job) (*mpc.Dist, error) {
			return core.Line3WorstCase(job.Cluster, job.In, job.Seed), nil
		},
	})
	Register(&Spec{
		name: "acyclic", bound: stats.AcyclicFormula, load: "frac", rounds: "const", fullJoin: true,
		classes: everyAcyclic, applies: (*hypergraph.Hypergraph).IsAcyclic,
		run: func(job Job) (*mpc.Dist, error) {
			return core.AcyclicJoin(job.Cluster, job.In, job.Seed), nil
		},
	})
	Register(&Spec{
		name: "yannakakis", bound: stats.YannakakisFormula, load: "perP", rounds: "const", fullJoin: true,
		classes: everyAcyclic, applies: (*hypergraph.Hypergraph).IsAcyclic,
		run: func(job Job) (*mpc.Dist, error) {
			return core.Yannakakis(job.Cluster, job.In, job.Order, job.Seed), nil
		},
	})
	Register(&Spec{
		name: "triangle", bound: stats.TriangleFormula, load: "frac", rounds: "const", fullJoin: true,
		classes: []hypergraph.Class{hypergraph.Cyclic}, applies: core.IsTriangleQuery,
		run: func(job Job) (*mpc.Dist, error) {
			return core.Triangle(job.Cluster, job.In, job.Seed), nil
		},
	})
	Register(&Spec{
		name: "naive", bound: "sequential oracle", load: "linear", rounds: "zero", fullJoin: true, oracle: true,
		classes: []hypergraph.Class{hypergraph.Cyclic}, applies: anyQuery,
		run: func(job Job) (*mpc.Dist, error) {
			// The oracle's rows, uncharged, as server 0's part.
			rel := core.Naive(job.In)
			out := mpc.NewDist(job.Cluster, rel.Schema)
			out.Parts[0].Reserve(len(rel.Schema), len(rel.Tuples))
			for i, t := range rel.Tuples {
				out.Parts[0].Append(t, rel.Annot(i))
			}
			return out, nil
		},
	})
	Register(&Spec{
		name: "count", bound: "IN/p (Cor. 4)", load: "perP", rounds: "const", fullJoin: false,
		applies: (*hypergraph.Hypergraph).IsAcyclic,
		run: func(job Job) (*mpc.Dist, error) {
			// One scalar row: Result.Annot carries |Q(R)|.
			out := mpc.NewDist(job.Cluster, relation.Schema{})
			out.Parts[0].Append(relation.Tuple{}, core.CountOutput(job.Cluster, job.In, job.Seed))
			return out, nil
		},
	})
	Register(&Spec{
		name: "aggregate", bound: stats.AggregateFormula, load: "frac", rounds: "const", fullJoin: false,
		applies: (*hypergraph.Hypergraph).IsAcyclic,
		run: func(job Job) (*mpc.Dist, error) {
			return core.Aggregate(job.Cluster, job.In, job.GroupBy, job.Seed), nil
		},
	})
}
