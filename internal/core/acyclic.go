package core

import (
	"fmt"
	"math"

	"repro/internal/hypergraph"
	"repro/internal/mpc"
	"repro/internal/primitives"
	"repro/internal/relation"
)

// AcyclicJoin is the paper's Section 5.1 output-optimal algorithm for an
// arbitrary acyclic join, with load O(IN/p + √(IN·OUT/p)).
//
// After removing dangling tuples and computing OUT, it recursively picks an
// internal join-tree node e0 whose children e1…ek are all leaves, splits
// each child's tuples into heavy/light by the degree of their join
// assignment (threshold τ = √(OUT/Nβ), Nβ = IN − Σ|R(ei)|), and decomposes
// the join into the 2^k heavy/light sub-joins:
//
//   - a sub-join containing a heavy child e_h is computed as
//     R^H(e_h) ⋈ [ (R(e0) ⋉ R^H(e_h)) ⋈ rest ]   (steps 2.1–2.3):
//     the bracketed intermediate has ≤ OUT/τ tuples;
//   - the all-light sub-join further splits R(e0) by the PRODUCT of its
//     light-child degrees: heavy e0-tuples go through a keyed multiway
//     (tall-flat) join (steps 3.1.1–3.1.3), light e0-tuples produce an
//     intermediate of ≤ Nβ·τ tuples that replaces the whole subtree and
//     recurses (step 3.2).
//
// Every intermediate is therefore bounded by max(OUT/τ, Nβ·τ) = √(Nβ·OUT),
// which is the whole point: Section 4.1 shows no single join order achieves
// this, but the degree decomposition always does.
//
//lint:load frac
//lint:rounds const
func AcyclicJoin(c *mpc.Cluster, in *Instance, seed uint64) *mpc.Dist {
	if !in.Q.IsAcyclic() {
		panic("core: AcyclicJoin on cyclic query")
	}
	outSchema := in.OutputSchema()
	dists := LoadInstance(c, in)
	dists = FullReduce(in, dists)
	out := CountOutputDists(in.Q, dists, seed^0x2000)
	if out == 0 {
		return mpc.NewDist(c, outSchema)
	}
	return mpc.Concat(outSchema, acyclicRec(c, in.Q.Edges, dists, in.Ring, out, seed, 0)...)
}

// acyclicRec computes the (already fully reduced) join of edges/dists as
// pieces, sub-join results left where they were computed whose union is the
// join (a recursion contributes its own pieces); the caller gathers them
// with one Concat. out is the output size of the ORIGINAL query
// (intermediate bounds only need an upper bound).
//
//lint:rounds const trust self-recursion bounded by the query's join-tree depth; each level charges a fixed round schedule
//lint:load frac trust Theorem 6: intermediates are bounded by sqrt(IN*OUT/p) per server at every level
func acyclicRec(c *mpc.Cluster, edges []hypergraph.AttrSet, dists []*mpc.Dist,
	ring relation.Semiring, out int64, seed uint64, depth int) []*mpc.Dist {

	if len(dists) == 1 {
		return []*mpc.Dist{dists[0]}
	}
	if len(dists) == 2 {
		return []*mpc.Dist{BinaryJoin(dists[0], dists[1], ring, seed^0x11, nil)}
	}
	q := hypergraph.New(edges...)
	tree, ok := q.GYO()
	if !ok {
		panic("core: acyclicRec lost acyclicity")
	}
	e0, children := pickInternalNode(tree)
	if e0 < 0 {
		// Every node is a leaf: at most two nodes — handled above.
		panic("core: no internal node in tree with >2 nodes")
	}

	// Dummy attribute for children sharing nothing with e0 (the paper's
	// H' fix in Figure 5): extend both sides with a constant column.
	edges = append([]hypergraph.AttrSet(nil), edges...)
	work := append([]*mpc.Dist(nil), dists...)
	for i, ch := range children {
		if len(edges[e0].Intersect(edges[ch])) == 0 {
			dummy := relation.Attr(-200 - depth*16 - i)
			edges[e0] = edges[e0].Union(hypergraph.NewAttrSet(dummy))
			edges[ch] = edges[ch].Union(hypergraph.NewAttrSet(dummy))
			work[e0] = addConstColumn(work[e0], dummy)
			work[ch] = addConstColumn(work[ch], dummy)
		}
	}

	// Nβ = IN − Σ_children |R(ei)|; τ = ceil(√(OUT/Nβ)).
	inSize, childSize := 0, 0
	for i, d := range work {
		inSize += d.Size()
		if containsInt(children, i) {
			childSize += d.Size()
		}
	}
	nBeta := inSize - childSize
	if nBeta < 1 {
		nBeta = 1
	}
	tau := int64(math.Ceil(math.Sqrt(float64(out) / float64(nBeta))))
	if tau < 1 {
		tau = 1
	}

	// Split every child by the degree of its join assignment si = e0 ∩ ei.
	k := len(children)
	si := make([][]relation.Attr, k)
	heavyC := make([]*mpc.Dist, k)
	lightC := make([]*mpc.Dist, k)
	for i, ch := range children {
		si[i] = []relation.Attr(edges[e0].Intersect(edges[ch]).Schema())
		deg := primitives.CountByKey(work[ch], si[i], seed^uint64(0x3000+i))
		// Heavy: degree ≥ τ, i.e. > τ−1.
		heavyC[i], lightC[i] = splitByDegree(work[ch], si[i], deg, tau-1)
	}

	// eBar: every edge except e0 and its children.
	var eBar []int
	for i := range edges {
		if i != e0 && !containsInt(children, i) {
			eBar = append(eBar, i)
		}
	}

	var pieces []*mpc.Dist

	// Enumerate the 2^k heavy/light patterns.
	for mask := 0; mask < 1<<k; mask++ {
		pick := func(i int) *mpc.Dist {
			if mask&(1<<i) != 0 {
				return heavyC[i]
			}
			return lightC[i]
		}
		pseed := seed ^ uint64(0x5000+mask*64)
		if mask != 0 {
			// Steps (2.1)–(2.3): h = the lowest heavy child.
			h := 0
			for mask&(1<<h) == 0 {
				h++
			}
			if heavyC[h].Size() == 0 {
				continue
			}
			r0 := primitives.SemiJoin(work[e0], si[h], heavyC[h], si[h])
			// R' = R'(e0) ⋈ (other pattern children) ⋈ (⋈ eBar).
			sub := []*mpc.Dist{r0}
			subEdges := []hypergraph.AttrSet{edges[e0]}
			for i := range children {
				if i == h {
					continue
				}
				sub = append(sub, pick(i))
				subEdges = append(subEdges, edges[children[i]])
			}
			for _, e := range eBar {
				sub = append(sub, work[e])
				subEdges = append(subEdges, edges[e])
			}
			rPrime := subJoin(subEdges, sub, ring, pseed^0x2)
			pieces = append(pieces, BinaryJoin(heavyC[h], rPrime, ring, pseed^0x3, nil))
			continue
		}

		// All-light pattern: split R(e0) by Π_i |σ_{si=v} R^L(ei)|.
		r0H, r0L := splitE0ByProduct(work[e0], si, lightC, tau, pseed)

		// Step (3.1): heavy e0-tuples.
		if r0H.Size() > 0 {
			// (3.1.1) R'(e0) = R^H(e0) ⋈ (⋈ eBar).
			sub := []*mpc.Dist{r0H}
			subEdges := []hypergraph.AttrSet{edges[e0]}
			for _, e := range eBar {
				sub = append(sub, work[e])
				subEdges = append(subEdges, edges[e])
			}
			rp0 := subJoin(subEdges, sub, ring, pseed^0x10)
			// (3.1.2) R'(ei) = R^H(e0) ⋈ R^L(ei), with e0's annotations
			// neutralized so each input annotation enters exactly once.
			parts := []*mpc.Dist{rp0}
			r0One := withUnitAnnot(r0H, ring)
			ok := true
			for i := range children {
				if lightC[i].Size() == 0 {
					ok = false
					break
				}
				parts = append(parts, BinaryJoin(r0One, lightC[i], ring, pseed^uint64(0x20+i), nil))
			}
			if ok && rp0.Size() > 0 {
				// (3.1.3) keyed multiway join on e0's full tuple.
				pieces = append(pieces,
					MultiwayKeyedJoin(edges[e0].Schema(), parts, ring, pseed^0x30))
			}
		}

		// Step (3.2): light e0-tuples — join the subtree, then recurse.
		if r0L.Size() > 0 {
			sub := []*mpc.Dist{r0L}
			subEdges := []hypergraph.AttrSet{edges[e0]}
			for i := range children {
				sub = append(sub, lightC[i])
				subEdges = append(subEdges, edges[children[i]])
			}
			rl := subJoin(subEdges, sub, ring, pseed^0x40)
			if rl.Size() == 0 {
				continue
			}
			if len(eBar) == 0 {
				pieces = append(pieces, rl)
				continue
			}
			// (3.2.2) contract the subtree into one node and recurse.
			recEdges := []hypergraph.AttrSet{hypergraph.NewAttrSet([]relation.Attr(rl.Schema)...)}
			recDists := []*mpc.Dist{rl}
			for _, e := range eBar {
				recEdges = append(recEdges, edges[e])
				recDists = append(recDists, work[e])
			}
			pieces = append(pieces,
				acyclicRec(c, recEdges, recDists, ring, out, pseed^0x50, depth+1)...)
		}
	}
	return pieces
}

// pickInternalNode returns a deepest node whose children are all leaves.
func pickInternalNode(tree *hypergraph.JoinTree) (int, []int) {
	best, bestDepth := -1, -1
	for u := range tree.Children {
		if len(tree.Children[u]) == 0 {
			continue
		}
		allLeaves := true
		for _, c := range tree.Children[u] {
			if len(tree.Children[c]) > 0 {
				allLeaves = false
				break
			}
		}
		if allLeaves && tree.Depth(u) > bestDepth {
			best, bestDepth = u, tree.Depth(u)
		}
	}
	if best < 0 {
		return -1, nil
	}
	return best, tree.Children[best]
}

// subJoin fully reduces the sub-instance (so every intermediate is part of
// a full sub-join result, keeping the paper's size bounds under "any
// order") and folds it with binary joins along a connected order.
func subJoin(edges []hypergraph.AttrSet, dists []*mpc.Dist, ring relation.Semiring, seed uint64) *mpc.Dist {
	if len(dists) == 1 {
		return dists[0]
	}
	q := hypergraph.New(edges...)
	inst := &Instance{Q: q, Rels: relsOf(q, dists), Ring: ring}
	red := FullReduce(inst, dists)
	order := DefaultJoinOrder(q)
	acc := red[order[0]]
	for i := 1; i < len(order); i++ {
		acc = BinaryJoin(acc, red[order[i]], ring, seed+uint64(31*i), nil)
	}
	return acc
}

// splitE0ByProduct partitions R(e0) by whether the product of its light-
// child degrees reaches τ. The degrees are attached by k lookups into a
// synthetic product column, then stripped.
func splitE0ByProduct(r0 *mpc.Dist, si [][]relation.Attr, lightC []*mpc.Dist, tau int64, seed uint64) (heavy, light *mpc.Dist) {
	const prodAttr = relation.Attr(-150)
	cur := addColumn(r0, prodAttr, 1)
	prodPos := len(cur.Schema) - 1
	for i, lc := range lightC {
		deg := primitives.CountByKey(lc, si[i], seed^uint64(0x60+i))
		cur = primitives.Lookup(cur, si[i], deg, si[i], cur.Schema,
			func(out *mpc.Columns, it mpc.Item, r primitives.LookupResult) {
				t := out.AppendRow(it.A)
				copy(t, it.T)
				if !r.Found {
					t[prodPos] = 0
				} else if v := t[prodPos] * relation.Value(r.DAnnot); v > tauClamp {
					t[prodPos] = tauClamp // saturate: only the ≥ τ test matters
				} else {
					t[prodPos] = v
				}
			})
	}
	isHeavy := func(it mpc.Item) bool { return int64(it.T[prodPos]) >= tau }
	heavy = cur.FilterLocal(isHeavy).Project(r0.Schema)
	light = cur.FilterLocal(func(it mpc.Item) bool { return !isHeavy(it) }).Project(r0.Schema)
	return heavy, light
}

// tauClamp saturates degree products well above any realistic τ while
// staying far from int64 overflow across repeated multiplications.
const tauClamp = relation.Value(1) << 40

// addConstColumn appends a constant-0 attribute (the paper's dummy H').
func addConstColumn(d *mpc.Dist, attr relation.Attr) *mpc.Dist {
	return addColumn(d, attr, 0)
}

// addColumn appends attr with the given constant value to every tuple,
// writing each widened row in place into an exactly-sized part.
func addColumn(d *mpc.Dist, attr relation.Attr, val relation.Value) *mpc.Dist {
	if d.Schema.Has(attr) {
		panic(fmt.Sprintf("core: duplicate column %d", attr))
	}
	out := mpc.NewDist(d.C, append(append(relation.Schema{}, d.Schema...), attr))
	for s := range d.Parts {
		part := &d.Parts[s]
		out.Parts[s].Reserve(len(out.Schema), part.Len())
		for i := 0; i < part.Len(); i++ {
			t := out.Parts[s].AppendRow(part.Annot(i))
			t[copy(t, part.Tuple(i))] = val
		}
	}
	return out
}

// withUnitAnnot returns d's view with all annotations set to ring.One.
func withUnitAnnot(d *mpc.Dist, ring relation.Semiring) *mpc.Dist {
	return d.MapAnnots(func(int64) int64 { return ring.One })
}

func containsInt(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}
