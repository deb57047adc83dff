package core

import (
	"repro/internal/hypergraph"
	"repro/internal/mpc"
	"repro/internal/relation"
)

// HyperCubeProduct computes a Cartesian product query R1(x1) × … × Rm(xm)
// (pairwise disjoint schemas) with the HyperCube algorithm [3]. As the
// paper observes (Section 1.3), HyperCube is instance-optimal for Cartesian
// products: its load tracks equation (1),
//
//	L_cartesian(p, R) = max_{S} (Π_{i∈S} N_i / p)^{1/|S|},
//
// up to polylog factors, because the per-relation grid dimensions adapt to
// the relation sizes. Implemented as the keyed multiway join with an empty
// key, whose allocator chooses exactly those dimensions; its local join
// writes the rows in the output schema's layout.
//
//lint:load frac trust eq. (1): per-relation grid dimensions adapt to the sizes, attaining L_cartesian up to polylog factors
//lint:rounds const
func HyperCubeProduct(c *mpc.Cluster, in *Instance, seed uint64) *mpc.Dist {
	if !IsProductQuery(in.Q) {
		panic("core: HyperCubeProduct needs pairwise disjoint relations")
	}
	dists := LoadInstance(c, in)
	return MultiwayKeyedJoin(relation.Schema{}, dists, in.OutputSchema(), in.Ring, seed)
}

// IsProductQuery reports whether q is a Cartesian product (pairwise
// disjoint edges), the shape HyperCube is instance-optimal for. The one
// canonical shape check, shared with the engine's dispatch.
func IsProductQuery(q *hypergraph.Hypergraph) bool {
	for i := range q.Edges {
		for j := i + 1; j < len(q.Edges); j++ {
			if !q.Edges[i].Disjoint(q.Edges[j]) {
				return false
			}
		}
	}
	return true
}
