package core

import (
	"repro/internal/hypergraph"
	"repro/internal/mpc"
	"repro/internal/primitives"
	"repro/internal/relation"
)

// The retained reduce-then-fold LinearAggro, kept as the reference the
// reducer-free count is pinned against: it runs FullReduce before the fold
// whatever y is. For y ≠ ∅ production still does exactly this, so its
// frontiers and charges must match the reference's; for y = ∅ the scalar
// must match while the rounds fall by the reducer's 3·2·(|E|−1).

// CountWithReducerRef is CountOutput with the retained reduce-then-fold
// body. It is exported for the external test package, which builds the
// instances through gen.
func CountWithReducerRef(c *mpc.Cluster, in *Instance, seed uint64) int64 {
	counted := &Instance{Q: in.Q, Rels: in.Rels, Ring: relation.CountRing}
	return countWithReducerRef(in.Q, LoadInstance(c, counted), seed)
}

// LinearAggroRef is LinearAggro with the retained reduce-then-fold body.
func LinearAggroRef(c *mpc.Cluster, in *Instance, y hypergraph.AttrSet, seed uint64) AggregateResult {
	return linearAggroRef(in.Q, LoadInstance(c, in), y, in.Ring, seed)
}

// countWithReducerRef is the retained CountOutputDists: annotations forced
// to 1, then the reduce-then-fold LinearAggro with y = ∅.
func countWithReducerRef(q *hypergraph.Hypergraph, dists []*mpc.Dist, seed uint64) int64 {
	ones := make([]*mpc.Dist, len(dists))
	for i, d := range dists {
		ones[i] = d.MapAnnots(nil)
	}
	return linearAggroRef(q, ones, nil, relation.CountRing, seed).Scalar
}

// linearAggroRef is the retained linearAggroDists: FullReduce first, then
// the absorb step and the fold. It is verbatim but for the absorb step's
// src index, which production and reference share, so that the two differ
// by the reducer alone. (The retained body compared the host's current
// Dist with the source relation by pointer, so an absorbed edge listed
// before its host's own relation made that relation its own directory:
// its annotations squared, and a bag there aborted the lookup.)
func linearAggroRef(q *hypergraph.Hypergraph, dists []*mpc.Dist, y hypergraph.AttrSet,
	ring relation.Semiring, seed uint64) AggregateResult {

	dists = FullReduce(&Instance{Q: q}, dists)
	reduced, host := q.Reduce()
	rdists := make([]*mpc.Dist, len(reduced.Edges))
	src := make([]int, len(reduced.Edges))
	for i := range q.Edges {
		if host[i] >= 0 && rdists[host[i]] == nil && reduced.Edges[host[i]].Equal(hypergraph.NewAttrSet([]relation.Attr(dists[i].Schema)...)) {
			rdists[host[i]], src[host[i]] = dists[i], i
		}
	}
	for i := range q.Edges {
		h := host[i]
		if src[h] == i {
			continue
		}
		key := []relation.Attr(dists[i].Schema)
		rdists[h] = primitives.AttachAnnot(rdists[h], key, dists[i], key, ring, true)
	}

	if len(y) == 0 {
		return AggregateResult{Scalar: fullAggregate(reduced, rdists, ring, seed)}
	}

	w := hypergraph.WithOutput{Q: reduced, Y: y}
	tree, virtual, ok := w.FreeConnexTree()
	if !ok {
		panic("core: reduced query lost free-connexity")
	}
	nodeSchema := func(u int) hypergraph.AttrSet {
		if u == virtual {
			return y
		}
		return reduced.Edges[u]
	}
	res := AggregateResult{Scalar: ring.One}
	for step, u := range tree.RemovalOrder {
		if u == virtual {
			continue
		}
		pu := tree.Parent[u]
		target := reduced.Edges[u].Intersect(nodeSchema(pu))
		cur := primitives.SumByKey(rdists[u], []relation.Attr(target), ring, seed^uint64(0x30+step))
		if pu != virtual {
			rdists[pu] = primitives.AttachAnnot(rdists[pu], []relation.Attr(target), cur, []relation.Attr(target), ring, true)
			continue
		}
		if len(target) == 0 {
			res.Scalar = ring.Mul(res.Scalar, scalarOf(cur, ring))
			continue
		}
		res.Frontiers = append(res.Frontiers, cur)
	}
	return res
}
