package core

import (
	"fmt"

	"repro/internal/hypergraph"
	"repro/internal/mpc"
	"repro/internal/primitives"
	"repro/internal/relation"
)

// Section 6: join-aggregate queries over annotated relations.
//
// LinearAggro is the paper's LinearAggroYannakakis (Algorithm 1 / Lemma 3):
// in O(1) rounds and linear load it eliminates all non-output attributes of
// a free-connex query, producing "frontier" relations whose schemas are
// subsets of y and whose annotated join is exactly ⊕_ȳ Q(R). Components
// without output attributes collapse to a scalar ⊗-factor.

// AggregateResult is the output of LinearAggro.
type AggregateResult struct {
	// Frontiers are the reduced relations T'(R_T'): schemas ⊆ y, and the
	// union of their schemas is exactly y. Their annotated join (⊗ inside,
	// no further ⊕ needed) is the query answer, scaled by Scalar.
	Frontiers []*mpc.Dist
	// Scalar is the ⊗-product contributed by subtrees containing no output
	// attribute (Ring.One when there are none). If it is Ring.Zero the
	// answer is empty.
	Scalar int64
}

// LinearAggro eliminates the non-output attributes of the free-connex
// query (in.Q, y). It panics if the query is not free-connex.
//
//lint:load perP
//lint:rounds const
func LinearAggro(c *mpc.Cluster, in *Instance, y hypergraph.AttrSet, seed uint64) AggregateResult {
	w := hypergraph.WithOutput{Q: in.Q, Y: y}
	if !w.IsFreeConnex() {
		panic(fmt.Sprintf("core: query %v with output %v is not free-connex", in.Q, y))
	}
	dists := LoadInstance(c, in)
	return linearAggroDists(in.Q, dists, y, in.Ring, seed)
}

// linearAggroDists is LinearAggro on already-distributed relations.
//
// Only y ≠ ∅ runs the full reducer first: the frontier join that follows
// needs dangling-free frontiers for its output bound. A y = ∅ fold needs
// none under any commutative semiring, because a dangling tuple only ever
// contributes Zero. An unmatched child key is never looked up, and
// AttachAnnot(…, dropMissing) drops an unmatched parent, so the root's sum
// ranges over exactly the tuples a reducer would keep. Skipping it saves
// 2·(|E|−1) semi-joins, 3 rounds each.
func linearAggroDists(q *hypergraph.Hypergraph, dists []*mpc.Dist, y hypergraph.AttrSet,
	ring relation.Semiring, seed uint64) AggregateResult {

	// Preprocessing: remove dangling tuples (y ≠ ∅ only), then reduce the
	// hypergraph; an absorbed edge's annotations are ⊗-merged into its host
	// (the paper replaces R(e') with R(e) ⋈ R(e') before discarding R(e)).
	if len(y) > 0 {
		dists = FullReduce(&Instance{Q: q}, dists)
	}
	// Each reduced edge starts from the first relation over exactly its
	// attributes; src remembers which, so that relation is never attached
	// to itself once an earlier absorbed edge has replaced rdists[h].
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
			// A subtree with no output attributes contributes a scalar.
			res.Scalar = ring.Mul(res.Scalar, scalarOf(cur, ring))
			continue
		}
		res.Frontiers = append(res.Frontiers, cur)
	}
	return res
}

// fullAggregate handles y = ∅: everything folds into the join-tree root,
// whose annotation sum is the answer (e.g. |Q(R)| under the count ring).
func fullAggregate(q *hypergraph.Hypergraph, dists []*mpc.Dist, ring relation.Semiring, seed uint64) int64 {
	tree, ok := q.GYO()
	if !ok {
		panic("core: fullAggregate on cyclic query")
	}
	cur := make([]*mpc.Dist, len(dists))
	copy(cur, dists)
	for step, u := range tree.RemovalOrder {
		p := tree.Parent[u]
		if p < 0 {
			break
		}
		target := q.Edges[u].Intersect(q.Edges[p])
		agg := primitives.SumByKey(cur[u], []relation.Attr(target), ring, seed^uint64(0x50+step))
		cur[p] = primitives.AttachAnnot(cur[p], []relation.Attr(target), agg, []relation.Attr(target), ring, true)
	}
	root := primitives.SumByKey(cur[tree.Root], nil, ring, seed^0x77)
	return scalarOf(root, ring)
}

// scalarOf extracts the single aggregate of an empty-schema collection
// (Zero when it is empty — an empty subtree kills the whole join).
func scalarOf(d *mpc.Dist, ring relation.Semiring) int64 {
	items := d.All()
	switch len(items) {
	case 0:
		return ring.Zero
	case 1:
		return items[0].A
	}
	panic("core: scalarOf on non-scalar collection")
}

// CountOutput computes OUT = |Q(R)| for an acyclic join in O(1) rounds with
// linear load (Corollary 4): LinearAggro under the count ring with y = ∅,
// which is one bottom-up fold and no full reducer (see linearAggroDists).
// This is the MPC primitive the output-optimal algorithms start with.
//
//lint:load perP
//lint:rounds const
func CountOutput(c *mpc.Cluster, in *Instance, seed uint64) int64 {
	counted := &Instance{Q: in.Q, Rels: in.Rels, Ring: relation.CountRing}
	dists := LoadInstance(c, counted)
	return CountOutputDists(in.Q, dists, seed)
}

// CountOutputDists is CountOutput on already-distributed relations, with
// annotations forced to 1 so it counts tuples regardless of the semiring
// the caller runs under. The relations may hold dangling tuples; callers
// that have reduced them already pay no second reducer.
//
//lint:load perP
//lint:rounds const
func CountOutputDists(q *hypergraph.Hypergraph, dists []*mpc.Dist, seed uint64) int64 {
	ones := make([]*mpc.Dist, len(dists))
	for i, d := range dists {
		ones[i] = d.MapAnnots(nil)
	}
	res := linearAggroDists(q, ones, nil, relation.CountRing, seed)
	return res.Scalar
}

// Aggregate computes the full free-connex join-aggregate query ⊕_ȳ Q(R):
// LinearAggro, then the output-optimal join over the frontier relations
// (Theorem 9). The result is distributed over y's attributes, each row
// annotated with its aggregate. An empty y is the count's scalar fold: no
// reducer and no join (see linearAggroDists).
//
//lint:load frac trust dispatches to RHier/BinaryJoin for the join phase; the aggregation passes themselves stay at IN/p
//lint:rounds const
func Aggregate(c *mpc.Cluster, in *Instance, y hypergraph.AttrSet, seed uint64) *mpc.Dist {
	res := LinearAggro(c, in, y, seed)
	ySchema := y.Schema()
	if len(res.Frontiers) == 0 {
		out := mpc.NewDist(c, ySchema)
		if len(y) == 0 && res.Scalar != in.Ring.Zero {
			out.Parts[0].Append(relation.Tuple{}, res.Scalar)
		}
		return out
	}
	// Join the frontier relations. Per Theorem 10, out-hierarchical queries
	// route through the §3.2 instance-optimal algorithm; otherwise the
	// frontier query is acyclic and binary-join folding applies. The Scalar
	// multiplies into the first frontier.
	fq := hypergraph.FromSchemas(frontierSchemas(res.Frontiers)...)
	scale := res.Scalar
	first := res.Frontiers[0].MapAnnots(func(a int64) int64 { return in.Ring.Mul(a, scale) })
	frontiers := append([]*mpc.Dist{first}, res.Frontiers[1:]...)

	if fq.IsRHierarchical() {
		frontInst := &Instance{Q: fq, Rels: materialize(frontiers), Ring: in.Ring}
		sub := mpc.NewCluster(c.P)
		out := RHier(sub, frontInst, seed^0x5A)
		c.MergeSequential(sub.Snapshot())
		out.C = c
		return out
	}
	order := DefaultJoinOrder(fq)
	acc := frontiers[order[0]]
	for i := 1; i < len(order); i++ {
		acc = BinaryJoin(acc, frontiers[order[i]], in.Ring, seed+uint64(13*i), nil)
	}
	return acc
}

func frontierSchemas(fs []*mpc.Dist) []relation.Schema {
	out := make([]relation.Schema, len(fs))
	for i, f := range fs {
		out[i] = f.Schema
	}
	return out
}
