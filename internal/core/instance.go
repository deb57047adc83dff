// Package core implements the paper's join algorithms and the baselines
// they are measured against, all as communication programs on the mpc
// simulator:
//
//   - BinaryJoin: the output-optimal binary join of [8,18] — the
//     workhorse subroutine;
//   - HyperCube: the one-round algorithm of [3] for Cartesian products;
//   - BinHC: the one-round degree-decomposed HyperCube of [8];
//   - Yannakakis: the classical algorithm [34] as an MPC program [2,25]
//     with a pluggable join order;
//   - RHier: the paper's Section 3.2 instance-optimal algorithm for
//     r-hierarchical joins, instance-optimal (Thm 3);
//   - Line3: the paper's Section 4.2 output-optimal line-3 join;
//   - AcyclicJoin: the paper's Section 5.1 output-optimal algorithm for
//     arbitrary acyclic joins (Thm 7);
//   - Aggregate: Section 6's LinearAggroYannakakis for free-connex
//     join-aggregate queries (and CountOutput, the |Q(R)| primitive);
//   - Triangle: the worst-case optimal triangle join of [24], measured
//     against the paper's Section 7 lower bound (Thm 11).
//
// Each algorithm's load bound is a row of the stats bound table, cited here
// by its id.
package core

import (
	"fmt"

	"repro/internal/hypergraph"
	"repro/internal/relation"
)

// Instance binds a query hypergraph to concrete relations: relation i is
// the instance of hyperedge i. This is the paper's (Q, R) pair.
type Instance struct {
	Q    *hypergraph.Hypergraph
	Rels []*relation.Relation
	Ring relation.Semiring
}

// NewInstance builds an instance over the counting semiring, validating
// that each relation's schema matches its hyperedge.
func NewInstance(q *hypergraph.Hypergraph, rels ...*relation.Relation) *Instance {
	if len(q.Edges) != len(rels) {
		panic(fmt.Sprintf("core: %d edges but %d relations", len(q.Edges), len(rels)))
	}
	for i, r := range rels {
		got := hypergraph.NewAttrSet([]relation.Attr(r.Schema)...)
		if !got.Equal(q.Edges[i]) {
			panic(fmt.Sprintf("core: relation %d schema %v does not match edge %v", i, r.Schema, q.Edges[i]))
		}
	}
	return &Instance{Q: q, Rels: rels, Ring: relation.CountRing}
}

// IN returns the input size Σ|R(e)|.
func (in *Instance) IN() int {
	n := 0
	for _, r := range in.Rels {
		n += r.Size()
	}
	return n
}

// OutputSchema returns the full join's output schema: all attributes in
// increasing order (canonical, so results from different algorithms
// compare directly).
func (in *Instance) OutputSchema() relation.Schema {
	return in.Q.Attrs().Schema()
}

// Clone deep-copies the instance.
func (in *Instance) Clone() *Instance {
	rels := make([]*relation.Relation, len(in.Rels))
	for i, r := range in.Rels {
		rels[i] = r.Clone()
	}
	return &Instance{Q: hypergraph.New(in.Q.Edges...), Rels: rels, Ring: in.Ring}
}
