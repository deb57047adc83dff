package core

import (
	"fmt"

	"repro/internal/hypergraph"
	"repro/internal/mpc"
	"repro/internal/primitives"
)

// LoadInstance distributes every relation of the instance over the cluster
// (the model's initial state, charged as round 0).
//
//lint:load perP
func LoadInstance(c *mpc.Cluster, in *Instance) []*mpc.Dist {
	dists := make([]*mpc.Dist, len(in.Rels))
	for i, r := range in.Rels {
		dists[i] = mpc.FromRelation(c, r)
	}
	return dists
}

// FullReduce removes all dangling tuples with a full reducer over the join
// tree: one bottom-up and one top-down semi-join pass [34]. O(1) rounds,
// linear load. It panics on cyclic queries. Fully deterministic: the
// semi-joins sort, they do not hash, so no seed is taken.
//
//lint:load perP
//lint:rounds const
func FullReduce(in *Instance, dists []*mpc.Dist) []*mpc.Dist {
	tree, ok := in.Q.GYO()
	if !ok {
		panic("core: FullReduce on cyclic query")
	}
	out := make([]*mpc.Dist, len(dists))
	copy(out, dists)
	semi := func(x, d *mpc.Dist) *mpc.Dist {
		shared := x.Schema.Intersect(d.Schema)
		if len(shared) == 0 {
			return x
		}
		return primitives.SemiJoin(x, shared, d, shared)
	}
	// Bottom-up: parents shed tuples with no support below.
	for _, u := range tree.RemovalOrder {
		p := tree.Parent[u]
		if p < 0 {
			continue
		}
		out[p] = semi(out[p], out[u])
	}
	// Top-down: children shed tuples with no support above.
	for i := len(tree.RemovalOrder) - 1; i >= 0; i-- {
		u := tree.RemovalOrder[i]
		p := tree.Parent[u]
		if p < 0 {
			continue
		}
		out[u] = semi(out[u], out[p])
	}
	return out
}

// DefaultJoinOrder returns a join order along the join tree (BFS from the
// root), so every prefix of the order is connected whenever Q is.
func DefaultJoinOrder(q *hypergraph.Hypergraph) []int {
	tree, ok := q.GYO()
	if !ok {
		panic("core: DefaultJoinOrder on cyclic query")
	}
	var order []int
	queue := []int{tree.Root}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		order = append(order, u)
		queue = append(queue, tree.Children[u]...)
	}
	return order
}

// Yannakakis is the classical algorithm as an MPC program [2,25]: remove
// dangling tuples (linear load), then fold the relations pairwise with the
// output-optimal binary join, in the given order (a permutation of edge
// indices; nil means DefaultJoinOrder). Load O(IN/p + OUT/p): after
// reduction every intermediate result is part of a full join result, so
// intermediate sizes — and hence the inputs of later binary joins — can
// reach Θ(OUT). Section 4.1 shows this is inherent for fixed orders.
//
//lint:load perP trust after the full reduction every intermediate is output-bounded (Cor. 8): IN/p + OUT/p per join step
//lint:rounds const
func Yannakakis(c *mpc.Cluster, in *Instance, order []int, seed uint64) *mpc.Dist {
	if order == nil {
		order = DefaultJoinOrder(in.Q)
	}
	if len(order) != len(in.Rels) {
		panic(fmt.Sprintf("core: join order has %d entries for %d relations", len(order), len(in.Rels)))
	}
	dists := LoadInstance(c, in)
	dists = FullReduce(in, dists)
	// The last join writes its rows in the output schema's order, so the
	// result needs no projection.
	acc := dists[order[0]]
	for i := 1; i < len(order); i++ {
		layout := acc.Schema.Union(dists[order[i]].Schema)
		if i == len(order)-1 {
			layout = in.OutputSchema()
		}
		acc = binaryJoin(acc, dists[order[i]], layout, in.Ring, seed+uint64(7*i))
	}
	return acc
}
