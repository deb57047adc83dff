package core

import (
	"fmt"
	"sort"

	"repro/internal/hypergraph"
	"repro/internal/mpc"
	"repro/internal/primitives"
	"repro/internal/relation"
	"repro/internal/runtime"
)

// The retained r-hierarchical recursion, kept as the reference the plan
// tree (hierNode) is pinned against: RHier, BinHC, hierRec, hierCase1,
// hierCase2, serversFor and planServers verbatim from before the plan, under
// a Ref suffix, with the groupByValue they group by. Every node regroups and
// refolds its relations, BinHC's load search regroups the whole instance at
// every probe, and each light group is solved by its own localJoin. RHierRef
// and BinHCRef are exported for the external test package, which builds
// instances through gen.

// PlanServersMismatch evaluates BinHC's plan and planServersRef at every
// load target of BinHC's search range on in (reduced first when
// removeDangling) and describes the first target where the two server
// counts differ, or returns "".
func PlanServersMismatch(in *Instance, p int, removeDangling bool) string {
	dists := LoadInstance(mpc.NewCluster(p), in)
	if removeDangling {
		dists = FullReduce(in, dists)
	}
	rels := materialize(dists)
	plan := newHierNode(rels, nil, in.Ring, degreeSizer)
	for l := int64(in.IN()/p) + 1; l <= int64(in.IN())+1; l++ {
		if got, want := plan.servers(l), planServersRef(rels, nil, l, degreeSizer); got != want {
			return fmt.Sprintf("l=%d: plan.servers %d, planServersRef %d", l, got, want)
		}
	}
	return ""
}

// RHierRef computes an r-hierarchical join with the load of Thm 3.
//
//lint:load frac trust Thm 3 (stats.Thm3): the residue-class grid and recursion keep every server within the bound
//lint:rounds const
func RHierRef(c *mpc.Cluster, in *Instance, seed uint64) *mpc.Dist {
	if !in.Q.IsRHierarchical() {
		panic("core: RHier on non-r-hierarchical query")
	}
	outSchema := in.OutputSchema()
	dists := LoadInstance(c, in)
	dists = FullReduce(in, dists)
	rels := materialize(dists)

	// L is Thm 3's bound, computed from the reduced instance
	// (2^m linear-load counting passes, charged below).
	red := &Instance{Q: in.Q, Rels: rels, Ring: in.Ring}
	c.ChargeSpread(in.IN())
	l := int64(in.IN()/c.P) + LInstance(red, c.P)
	if l < 1 {
		l = 1
	}
	return hierRecRef(c, rels, nil, l, in.Ring, exactSizer).Project(outSchema)
}

// BinHCRef runs the one-round degree-based algorithm. With removeDangling it
// first runs the linear-load semi-join reduction (turning it into the
// multi-round variant of Table 1 that is instance-optimal for all
// r-hierarchical joins); without it, dangling tuples can inflate the
// degree-based shares, which is exactly the one-round barrier the paper
// describes.
//
//lint:load frac trust Section 5.1: degree-based sharing caps each server at the Table 1 instance bound
//lint:rounds const
func BinHCRef(c *mpc.Cluster, in *Instance, seed uint64, removeDangling bool) *mpc.Dist {
	if !in.Q.IsRHierarchical() {
		panic("core: BinHC on non-r-hierarchical query")
	}
	outSchema := in.OutputSchema()
	dists := LoadInstance(c, in)
	if removeDangling {
		dists = FullReduce(in, dists)
	}
	rels := materialize(dists)
	c.ChargeSpread(in.IN())
	// BinHC picks the smallest load target whose share allocation fits in
	// O(p) servers — computable from the degree statistics alone.
	lo, hi := int64(in.IN()/c.P)+1, int64(in.IN())+1
	for lo < hi {
		mid := lo + (hi-lo)/2
		if planServersRef(rels, nil, mid, degreeSizer) <= 2*c.P {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return hierRecRef(c, rels, nil, lo, in.Ring, degreeSizer).Project(outSchema)
}

// hierState is one recursion node: relations plus the attributes already
// fixed by enclosing value groups (their columns are constant here).
//
// hierRecRef returns the join result distributed over sub's servers; loads are
// recorded on sub and composed by the caller.
func hierRecRef(sub *mpc.Cluster, rels []*relation.Relation, fixed hypergraph.AttrSet,
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
		return hierCase1Ref(sub, active, fixed, forest, l, ring, size)
	}
	return hierCase2Ref(sub, active, fixed, forest, l, ring, size)
}

// hierCase1Ref handles a single tree rooted at attribute x: group by x-value.
func hierCase1Ref(sub *mpc.Cluster, active []*relation.Relation, fixed hypergraph.AttrSet,
	forest *hypergraph.AttrForest, l int64, ring relation.Semiring, size sizer) *mpc.Dist {

	x := forest.Attrs[forest.Roots[0]]
	groups := groupByValue(active, x)
	sub.ChargeSpread(totalSize(active))

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
	outs := make([]*mpc.Dist, len(heavies))
	runtime.Fork(len(heavies), func(i int) {
		g := heavies[i]
		child := mpc.NewCluster(serversForRef(g, newFixed, l, size))
		child.ChargeInput(totalSize(g))
		outs[i] = hierRecRef(child, g, newFixed, l, ring, size)
	})
	subs := make([]*mpc.Cluster, len(outs))
	offset := 0
	for g, h := range outs {
		subs[g] = h.C
		for s := 0; s < h.C.P; s++ {
			dst := (offset + s) % sub.P
			part := &h.Parts[s]
			for i := 0; i < part.Len(); i++ {
				out.Parts[dst].Append(padTo(part.Tuple(i), h.Schema, out.Schema), part.Annot(i))
			}
		}
		offset += h.C.P
	}
	sub.Merge(subs...)
	return out
}

// hierCase2Ref handles k > 1 trees: a Cartesian product of components,
// computed on a p1 × … × pk grid with per-server cross products.
func hierCase2Ref(sub *mpc.Cluster, active []*relation.Relation, fixed hypergraph.AttrSet,
	forest *hypergraph.AttrForest, l int64, ring relation.Semiring, size sizer) *mpc.Dist {

	comps := componentsByRoot(active, fixed, forest)
	k := len(comps)
	sub.ChargeSpread(totalSize(active))

	// The grid's dimensions compute independently per component (each on
	// its own sub-cluster), so they run as parallel tasks, merged in
	// component order.
	dims := make([]int, k)
	slices := make([]*mpc.Dist, k)
	grid := make([]*mpc.Cluster, k)
	runtime.Fork(k, func(i int) {
		comp := comps[i]
		ini := int64(totalSize(comp))
		if ini <= l {
			dims[i] = 1
		} else {
			dims[i] = serversForRef(comp, fixed, l, size)
		}
		grid[i] = mpc.NewCluster(dims[i])
		grid[i].ChargeInput(totalSize(comp))
		slices[i] = hierRecRef(grid[i], comp, fixed, l, ring, size)
	})
	sub.MergeGrid(grid...)

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

// serversForRef is p_a = max_S ⌈size(S)/L^{|S|}⌉ over non-empty subsets of the
// REDUCED subproblem (equation 2 is defined on reduced instances).
func serversForRef(rels []*relation.Relation, fixed hypergraph.AttrSet, l int64, size sizer) int {
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

// planServersRef dry-runs the recursion and returns the total number of leaf
// servers the allocation would use at load target l.
//
//lint:load zero
//lint:rounds zero
func planServersRef(rels []*relation.Relation, fixed hypergraph.AttrSet, l int64, size sizer) int {
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
			pa := serversForRef(g, newFixed, l, size)
			sub := planServersRef(g, newFixed, l, size)
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
		pa := serversForRef(comp, fixed, l, size)
		if sub := planServersRef(comp, fixed, l, size); sub > pa {
			pa = sub
		}
		total *= pa
		if total > 1<<30 {
			return 1 << 30
		}
	}
	return total
}

// groupByValue restricts every relation to σ_{x=v} for each value v of x
// present anywhere. Relations may come back empty for a given v.
func groupByValue(rels []*relation.Relation, x relation.Attr) map[relation.Value][]*relation.Relation {
	groups := map[relation.Value][]*relation.Relation{}
	ensure := func(v relation.Value) []*relation.Relation {
		if g, ok := groups[v]; ok {
			return g
		}
		g := make([]*relation.Relation, len(rels))
		for i, r := range rels {
			nr := relation.New(r.Name, r.Schema)
			nr.Annots = []int64{}
			g[i] = nr
		}
		groups[v] = g
		return g
	}
	for i, r := range rels {
		pos := r.Schema.Pos(x)
		for j, t := range r.Tuples {
			g := ensure(t[pos])
			g[i].Tuples = append(g[i].Tuples, t)
			g[i].Annots = append(g[i].Annots, r.Annot(j))
		}
	}
	return groups
}
