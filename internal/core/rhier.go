package core

import (
	"sort"

	"repro/internal/hypergraph"
	"repro/internal/mpc"
	"repro/internal/primitives"
	"repro/internal/relation"
	"repro/internal/runtime"
)

// Section 3: r-hierarchical joins.
//
// RHier is the paper's Section 3.2 deterministic, instance-optimal
// algorithm: load O(IN/p + L_instance(p,R)) in O(1) rounds. BinHC is the
// one-round algorithm of [8] (Section 3.1): same recursive decomposition of
// the attribute forest, but server shares come from degree statistics alone
// (the quantities in Theorems 1–2) rather than exact sub-join sizes — which
// is optimal up to polylog factors on tall-flat joins, and on r-hierarchical
// joins only when the instance has no dangling tuples.
//
// Both share one recursion (Cases 1 and 2 of Section 3.2):
//
//   - single attribute-forest tree rooted at x: group the instance by the
//     value a of x; light groups (IN_a ≤ L) are parallel-packed onto single
//     servers and solved locally; each heavy group gets
//     p_a = max_S |Q_x(R_a, S)|/L^{|S|} servers and recurses;
//   - a forest with k > 1 trees is a Cartesian product: each component is
//     computed by groups of servers arranged in a p_1 × … × p_k grid, and
//     every grid server emits the cross product of its k slices — the
//     interleaving that avoids materializing intermediate products.

// sizer estimates |⋈ S| for a subset of (already value-restricted)
// relations. RHier uses the exact DP count; BinHC uses the degree product
// Π_e |R(e)|, the quantity its analysis is built on.
type sizer func(rels []*relation.Relation) int64

func exactSizer(rels []*relation.Relation) int64 { return InMemoryJoinCount(rels) }

func degreeSizer(rels []*relation.Relation) int64 {
	out := int64(1)
	for _, r := range rels {
		out *= int64(r.Size())
		if out > 1<<40 {
			return 1 << 40
		}
	}
	return out
}

// RHier computes an r-hierarchical join with load O(IN/p + L_instance).
//
//lint:load frac trust Theorem 9: the residue-class grid and recursion keep every server at IN/p + L_instance(p,R)
//lint:rounds const
func RHier(c *mpc.Cluster, in *Instance, seed uint64) *mpc.Dist {
	if !in.Q.IsRHierarchical() {
		panic("core: RHier on non-r-hierarchical query")
	}
	outSchema := in.OutputSchema()
	dists := LoadInstance(c, in)
	dists = FullReduce(in, dists)
	rels := materialize(dists)

	// L = IN/p + L_instance(p, R), computed from the reduced instance
	// (2^m linear-load counting passes, charged below).
	red := &Instance{Q: in.Q, Rels: rels, Ring: in.Ring}
	chargeLinear(c, in.IN())
	l := int64(in.IN()/c.P) + LInstance(red, c.P)
	if l < 1 {
		l = 1
	}
	return hierRec(c, rels, nil, l, in.Ring, exactSizer).Project(outSchema)
}

// BinHC runs the one-round degree-based algorithm. With removeDangling it
// first runs the linear-load semi-join reduction (turning it into the
// multi-round variant of Table 1 that is instance-optimal for all
// r-hierarchical joins); without it, dangling tuples can inflate the
// degree-based shares, which is exactly the one-round barrier the paper
// describes.
//
//lint:load frac trust Section 5.1: degree-based sharing caps each server at the Table 1 instance bound
//lint:rounds const
func BinHC(c *mpc.Cluster, in *Instance, seed uint64, removeDangling bool) *mpc.Dist {
	if !in.Q.IsRHierarchical() {
		panic("core: BinHC on non-r-hierarchical query")
	}
	outSchema := in.OutputSchema()
	dists := LoadInstance(c, in)
	if removeDangling {
		dists = FullReduce(in, dists)
	}
	rels := materialize(dists)
	chargeLinear(c, in.IN())
	// BinHC picks the smallest load target whose share allocation fits in
	// O(p) servers — computable from the degree statistics alone.
	lo, hi := int64(in.IN()/c.P)+1, int64(in.IN())+1
	for lo < hi {
		mid := lo + (hi-lo)/2
		if planServers(rels, nil, mid, degreeSizer) <= 2*c.P {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return hierRec(c, rels, nil, lo, in.Ring, degreeSizer).Project(outSchema)
}

// hierState is one recursion node: relations plus the attributes already
// fixed by enclosing value groups (their columns are constant here).
//
// hierRec returns the join result distributed over sub's servers; loads are
// recorded on sub and composed by the caller.
func hierRec(sub *mpc.Cluster, rels []*relation.Relation, fixed hypergraph.AttrSet,
	l int64, ring relation.Semiring, size sizer) *mpc.Dist {

	active, scalar := splitScalars(rels, fixed)
	scale, alive := foldScalars(scalar, ring)
	if !alive {
		return mpc.NewDist(sub, unionSchema(rels))
	}
	if len(active) == 0 {
		out := mpc.NewDist(sub, unionSchema(rels))
		t := joinScalarTuples(scalar)
		out.Parts[0].Append(t, scale)
		return out
	}
	active = reduceFold(active, fixed, ring)
	active[0] = scaleAnnots(active[0], scale, ring)

	remaining := make([]hypergraph.AttrSet, len(active))
	for i, r := range active {
		remaining[i] = hypergraph.NewAttrSet([]relation.Attr(r.Schema)...).Minus(fixed)
	}
	forest := hypergraph.New(remaining...).AttributeForest()

	if len(active) == 1 {
		return toDistInPlace(sub, active[0], ring)
	}
	if len(forest.Roots) == 1 {
		return hierCase1(sub, active, fixed, forest, l, ring, size)
	}
	return hierCase2(sub, active, fixed, forest, l, ring, size)
}

// hierCase1 handles a single tree rooted at attribute x: group by x-value.
func hierCase1(sub *mpc.Cluster, active []*relation.Relation, fixed hypergraph.AttrSet,
	forest *hypergraph.AttrForest, l int64, ring relation.Semiring, size sizer) *mpc.Dist {

	x := forest.Attrs[forest.Roots[0]]
	groups := groupByValue(active, x)
	chargeLinear(sub, totalSize(active))

	out := mpc.NewDist(sub, unionSchema(active))

	var heavies [][]*relation.Relation
	var lightLoads []int
	lightServer := func(i int) int { return i % sub.P }
	curLight := 0
	var curLightSize int64

	// Deterministic value order.
	var vals []relation.Value
	for v := range groups {
		vals = append(vals, v)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })

	newFixed := fixed.Union(hypergraph.NewAttrSet(x))
	for _, v := range vals {
		g := groups[v]
		ina := int64(totalSize(g))
		if ina == 0 {
			continue
		}
		if ina <= l {
			// Pack light groups greedily to capacity l (parallel-packing).
			if curLightSize+ina > l {
				lightLoads = append(lightLoads, int(curLightSize))
				curLight++
				curLightSize = 0
			}
			curLightSize += ina
			localJoin(&out.Parts[lightServer(curLight)], out.Schema, g, ring)
			continue
		}
		heavies = append(heavies, g)
	}
	if curLightSize > 0 {
		lightLoads = append(lightLoads, int(curLightSize))
	}
	if len(lightLoads) > 0 {
		perServer := make([]int, sub.P)
		for i, ld := range lightLoads {
			perServer[lightServer(i)] += ld
		}
		sub.ChargeRound(perServer)
	}

	// Heavy groups recurse in parallel on disjoint server ranges — in the
	// model AND in wall-clock: each group gets its own sub-cluster, so the
	// recursions share no mutable state and run as forked tasks. Results
	// and statistics are merged in group order afterwards, which keeps the
	// output byte-identical to the serial loop for every worker count.
	type heavyOut struct {
		pa    int
		stats mpc.Stats
		res   *mpc.Dist
	}
	outs := make([]heavyOut, len(heavies))
	runtime.Fork(len(heavies), func(i int) {
		g := heavies[i]
		pa := serversFor(g, newFixed, l, size)
		child := mpc.NewCluster(pa)
		chargeInput(child, totalSize(g))
		res := hierRec(child, g, newFixed, l, ring, size)
		outs[i] = heavyOut{pa: pa, stats: child.Snapshot(), res: res}
	})
	stats := make([]mpc.Stats, 0, len(outs))
	offset := 0
	for _, h := range outs {
		stats = append(stats, h.stats)
		for s := 0; s < h.res.C.P; s++ {
			dst := (offset + s) % sub.P
			part := &h.res.Parts[s]
			for i := 0; i < part.Len(); i++ {
				out.Parts[dst].Append(padTo(part.Tuple(i), h.res.Schema, out.Schema), part.Annot(i))
			}
		}
		offset += h.pa
	}
	sub.MergeParallel(stats)
	return out
}

// hierCase2 handles k > 1 trees: a Cartesian product of components,
// computed on a p1 × … × pk grid with per-server cross products.
func hierCase2(sub *mpc.Cluster, active []*relation.Relation, fixed hypergraph.AttrSet,
	forest *hypergraph.AttrForest, l int64, ring relation.Semiring, size sizer) *mpc.Dist {

	comps := componentsByRoot(active, fixed, forest)
	k := len(comps)
	chargeLinear(sub, totalSize(active))

	// The grid's dimensions compute independently per component (each on
	// its own sub-cluster), so they run as parallel tasks, merged in
	// component order.
	dims := make([]int, k)
	slices := make([]*mpc.Dist, k)
	stats := make([]mpc.Stats, k)
	runtime.Fork(k, func(i int) {
		comp := comps[i]
		ini := int64(totalSize(comp))
		if ini <= l {
			dims[i] = 1
		} else {
			dims[i] = serversFor(comp, fixed, l, size)
		}
		child := mpc.NewCluster(dims[i])
		chargeInput(child, totalSize(comp))
		slices[i] = hierRec(child, comp, fixed, l, ring, size)
		stats[i] = child.Snapshot()
	})
	sub.MergeGrid(stats)

	// Every grid cell (c1,…,ck) emits slice_1(c1) × … × slice_k(ck);
	// distinct cells cover disjoint result combinations, so mapping cells
	// onto sub's servers mod P never duplicates.
	out := mpc.NewDist(sub, unionSchema(active))
	total := 1
	for _, d := range dims {
		total *= d
	}
	if total > 1<<22 {
		panic("core: hierCase2 grid exploded — allocation bug")
	}
	// Residue-class grid parallelism: cell → server is cell mod P, so the
	// cells of one residue class all write the same output part. Forking
	// one task per class keeps the writes disjoint without breaking the
	// cells→servers mapping, and each class walks its cells in increasing
	// cell order — exactly the serial emission order within every part, so
	// the output is byte-identical for every data-plane width.
	classes := sub.P
	if total < classes {
		classes = total
	}
	// Keyless stages, one per slice: indexJoin then enumerates exactly the
	// cell's cross product, last slice fastest.
	width := len(out.Schema)
	stages := make([]joinStage, k)
	for i, sl := range slices {
		stages[i] = joinStage{src: identityPos(len(sl.Schema)), dst: out.Schema.Positions([]relation.Attr(sl.Schema))}
	}
	runtime.Fork(classes, func(r int) {
		cell := append([]joinStage(nil), stages...)
		// bind points cell at grid cell id's slices and returns the size of
		// their cross product.
		bind := func(id int) int {
			n := 1
			for i := k - 1; i >= 0; i-- {
				cell[i].part = &slices[i].Parts[id%dims[i]]
				n *= cell[i].part.Len()
				id /= dims[i]
			}
			return n
		}
		rows := 0
		for id := r; id < total; id += sub.P {
			rows += bind(id)
		}
		out.Parts[r].Reserve(width, rows)
		for id := r; id < total; id += sub.P {
			bind(id)
			indexJoin(&out.Parts[r], width, cell, nil, ring)
		}
	})
	return out
}

// serversFor is p_a = max_S ⌈size(S)/L^{|S|}⌉ over non-empty subsets of the
// REDUCED subproblem (equation 2 is defined on reduced instances).
func serversFor(rels []*relation.Relation, fixed hypergraph.AttrSet, l int64, size sizer) int {
	rels = reduceFold(rels, fixed, relation.CountRing)
	m := len(rels)
	best := int64(1)
	for mask := 1; mask < 1<<m; mask++ {
		var sub []*relation.Relation
		for i := 0; i < m; i++ {
			if mask&(1<<i) != 0 {
				sub = append(sub, rels[i])
			}
		}
		den := primitives.Ipow(l, len(sub))
		need := (size(sub) + den - 1) / den
		if need > best {
			best = need
		}
	}
	if best > 1<<20 {
		best = 1 << 20
	}
	return int(best)
}

// planServers dry-runs the recursion and returns the total number of leaf
// servers the allocation would use at load target l.
//
//lint:load zero
//lint:rounds zero
func planServers(rels []*relation.Relation, fixed hypergraph.AttrSet, l int64, size sizer) int {
	active, _ := splitScalars(rels, fixed)
	if len(active) <= 1 {
		return 1
	}
	active = reduceFold(active, fixed, relation.CountRing)
	remaining := make([]hypergraph.AttrSet, len(active))
	for i, r := range active {
		remaining[i] = hypergraph.NewAttrSet([]relation.Attr(r.Schema)...).Minus(fixed)
	}
	forest := hypergraph.New(remaining...).AttributeForest()
	if len(forest.Roots) == 1 {
		x := forest.Attrs[forest.Roots[0]]
		groups := groupByValue(active, x)
		newFixed := fixed.Union(hypergraph.NewAttrSet(x))
		var lightTotal int64
		total := 0
		for _, g := range groups {
			ina := int64(totalSize(g))
			if ina == 0 {
				continue
			}
			if ina <= l {
				lightTotal += ina
				continue
			}
			pa := serversFor(g, newFixed, l, size)
			sub := planServers(g, newFixed, l, size)
			if sub > pa {
				pa = sub
			}
			total += pa
		}
		total += int(1 + 2*lightTotal/l)
		return total
	}
	// k > 1 trees: the grid uses the PRODUCT of the per-component widths.
	total := 1
	for _, comp := range componentsByRoot(active, fixed, forest) {
		if int64(totalSize(comp)) <= l {
			continue
		}
		pa := serversFor(comp, fixed, l, size)
		if sub := planServers(comp, fixed, l, size); sub > pa {
			pa = sub
		}
		total *= pa
		if total > 1<<30 {
			return 1 << 30
		}
	}
	return total
}
