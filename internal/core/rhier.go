package core

import (
	"cmp"
	"math/bits"
	"slices"

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
//
// The recursion is one plan tree per job (hierNode): every node splits,
// folds and groups its relations once, and only the light/heavy test
// IN_a ≤ L and the shares ⌈size(S)/L^{|S|}⌉ depend on the load target.
// BinHC's load search evaluates the plan at each probe L (servers), RHier
// reads L_instance off the root's folded relations, and run executes the
// plan at the chosen L.

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
	plan := newHierNode(materialize(dists), nil, in.Ring, exactSizer)

	// L = IN/p + L_instance(p, R), computed from the reduced instance's
	// folded relations (2^m linear-load counting passes, charged below).
	chargeLinear(c, in.IN())
	plan.fold()
	l := int64(in.IN()/c.P) + lInstance(plan.active, c.P)
	if l < 1 {
		l = 1
	}
	return plan.run(c, l).Project(outSchema)
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
	plan := newHierNode(materialize(dists), nil, in.Ring, degreeSizer)
	chargeLinear(c, in.IN())
	// BinHC picks the smallest load target whose share allocation fits in
	// O(p) servers — computable from the degree statistics alone.
	lo, hi := int64(in.IN()/c.P)+1, int64(in.IN())+1
	for lo < hi {
		mid := lo + (hi-lo)/2
		if plan.servers(mid) <= 2*c.P {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return plan.run(c, lo).Project(outSchema)
}

// hierNode is one recursion node of the plan: relations plus the attributes
// already fixed by enclosing value groups (their columns are constant
// here). Nothing on it depends on the load target. The fold, the grouping,
// each group's relations, subset sizes and child node are computed on first
// use; a child is only ever built and run from its own group's slot, so
// forked recursions on distinct groups share no write.
type hierNode struct {
	fixed  hypergraph.AttrSet
	ring   relation.Semiring
	size   sizer
	schema relation.Schema // the input relations' union, for empty results
	scalar []*relation.Relation
	// unfolded is the number of active relations before folding: the load
	// search counts a node with at most one as a single server.
	unfolded int
	active   []*relation.Relation // after splitScalars and, once folded, reduceFold
	folded   bool

	// Filled by group: Case 2 (comps) has one group per forest tree, Case 1
	// one per value of the root attribute x, in value order; group g's rows
	// in active relation k are sorted[k]'s rows starts[k][g] … starts[k][g+1]−1.
	grouped bool
	comps   bool
	sub     hypergraph.AttrSet // the groups' fixed attributes
	sorted  []*relation.Relation
	starts  [][]int
	groups  []hierGroup
}

// hierGroup is one value group (Case 1) or component (Case 2) of a node.
type hierGroup struct {
	in    int64                // IN_a: the group's tuples
	rels  []*relation.Relation // on first use in Case 1
	sizes []int64              // size(S) per subset mask of the reduced group, on first use
	child *hierNode            // on first use
}

// newHierNode is the plan node of rels with the attributes fixed; it only
// splits off the scalar relations.
func newHierNode(rels []*relation.Relation, fixed hypergraph.AttrSet, ring relation.Semiring, size sizer) *hierNode {
	active, scalar := splitScalars(rels, fixed)
	return &hierNode{fixed: fixed, ring: ring, size: size, schema: unionSchema(rels),
		scalar: scalar, unfolded: len(active), active: active}
}

// fold applies reduceFold to the active relations and multiplies the
// scalar relations' annotations into the first.
func (n *hierNode) fold() {
	if n.folded || len(n.active) == 0 {
		return
	}
	n.folded = true
	n.active = reduceFold(n.active, n.fixed, n.ring)
	if scale, alive := foldScalars(n.scalar, n.ring); alive {
		n.active[0] = scaleAnnots(n.active[0], scale, n.ring)
	}
}

// group builds the node's groups from the folded active relations.
func (n *hierNode) group() {
	if n.grouped {
		return
	}
	n.grouped = true
	remaining := make([]hypergraph.AttrSet, len(n.active))
	for i, r := range n.active {
		remaining[i] = hypergraph.NewAttrSet([]relation.Attr(r.Schema)...).Minus(n.fixed)
	}
	forest := hypergraph.New(remaining...).AttributeForest()
	if len(forest.Roots) > 1 {
		n.comps, n.sub = true, n.fixed
		for _, comp := range componentsByRoot(n.active, n.fixed, forest) {
			n.groups = append(n.groups, hierGroup{in: int64(totalSize(comp)), rels: comp})
		}
		return
	}
	x := forest.Attrs[forest.Roots[0]]
	n.sub = n.fixed.Union(hypergraph.NewAttrSet(x))
	n.groupBy(x)
}

// groupBy sorts every active relation by x, stably so a group keeps its
// rows in input order, and cuts one group per value of x present in any
// relation, in value order (a relation may hold no row of a group).
func (n *hierNode) groupBy(x relation.Attr) {
	m := len(n.active)
	pos := make([]int, m)
	n.sorted = make([]*relation.Relation, m)
	for k, r := range n.active {
		pos[k] = r.Schema.Pos(x)
		n.sorted[k] = sortedBy(r, pos[k])
	}
	// Merge the sorted relations: each round takes the smallest value at
	// any cursor and advances every cursor past it.
	n.starts = make([][]int, m)
	cur := make([]int, m)
	for {
		var v relation.Value
		found := false
		for k, r := range n.sorted {
			if cur[k] < r.Size() && (!found || r.Tuples[cur[k]][pos[k]] < v) {
				v, found = r.Tuples[cur[k]][pos[k]], true
			}
		}
		if !found {
			break
		}
		var in int64
		for k, r := range n.sorted {
			n.starts[k] = append(n.starts[k], cur[k])
			for cur[k] < r.Size() && r.Tuples[cur[k]][pos[k]] == v {
				cur[k]++
			}
			in += int64(cur[k] - n.starts[k][len(n.starts[k])-1])
		}
		n.groups = append(n.groups, hierGroup{in: in})
	}
	for k := range n.starts {
		n.starts[k] = append(n.starts[k], cur[k])
	}
}

// sortedBy returns a copy of r with its rows stably sorted by column p and
// its annotations materialized.
func sortedBy(r *relation.Relation, p int) *relation.Relation {
	type row struct {
		v relation.Value
		i int
	}
	rows := make([]row, r.Size())
	for i, t := range r.Tuples {
		rows[i] = row{t[p], i}
	}
	slices.SortFunc(rows, func(a, b row) int {
		if c := cmp.Compare(a.v, b.v); c != 0 {
			return c
		}
		return cmp.Compare(a.i, b.i)
	})
	out := &relation.Relation{Name: r.Name, Schema: r.Schema,
		Tuples: make([]relation.Tuple, len(rows)), Annots: make([]int64, len(rows))}
	for i, w := range rows {
		out.Tuples[i], out.Annots[i] = r.Tuples[w.i], r.Annot(w.i)
	}
	return out
}

// groupRels returns group i's relations: each active relation restricted
// to the group's value of x (Case 1), or the component (Case 2).
func (n *hierNode) groupRels(i int) []*relation.Relation {
	g := &n.groups[i]
	if g.rels == nil {
		g.rels = make([]*relation.Relation, len(n.sorted))
		for k, r := range n.sorted {
			lo, hi := n.starts[k][i], n.starts[k][i+1]
			g.rels[k] = &relation.Relation{Name: r.Name, Schema: r.Schema, Tuples: r.Tuples[lo:hi:hi], Annots: r.Annots[lo:hi:hi]}
		}
	}
	return g.rels
}

// child returns group i's recursion node.
func (n *hierNode) child(i int) *hierNode {
	g := &n.groups[i]
	if g.child == nil {
		g.child = newHierNode(n.groupRels(i), n.sub, n.ring, n.size)
	}
	return g.child
}

// serversFor is p_a = max_S ⌈size(S)/L^{|S|}⌉ over non-empty subsets of
// group i's REDUCED relations (equation 2 is defined on reduced instances).
// The sizes do not depend on l and are computed once.
func (n *hierNode) serversFor(i int, l int64) int {
	g := &n.groups[i]
	if g.sizes == nil {
		rels := reduceFold(n.groupRels(i), n.sub, relation.CountRing)
		g.sizes = make([]int64, 1<<len(rels))
		for mask := 1; mask < len(g.sizes); mask++ {
			var sub []*relation.Relation
			for k := range rels {
				if mask&(1<<k) != 0 {
					sub = append(sub, rels[k])
				}
			}
			g.sizes[mask] = n.size(sub)
		}
	}
	best := int64(1)
	for mask := 1; mask < len(g.sizes); mask++ {
		den := primitives.Ipow(l, bits.OnesCount(uint(mask)))
		if need := (g.sizes[mask] + den - 1) / den; need > best {
			best = need
		}
	}
	return int(min(best, 1<<20))
}

// servers dry-runs the recursion and returns the total number of leaf
// servers the allocation would use at load target l. Once the nodes it
// visits exist, a call is arithmetic and allocates nothing.
//
//lint:load zero
//lint:rounds zero
func (n *hierNode) servers(l int64) int {
	if n.unfolded <= 1 {
		return 1
	}
	n.fold()
	n.group()
	if n.comps {
		// k > 1 trees: the grid uses the PRODUCT of the per-component widths.
		total := 1
		for i := range n.groups {
			if n.groups[i].in <= l {
				continue
			}
			total *= max(n.serversFor(i, l), n.child(i).servers(l))
			if total > 1<<30 {
				return 1 << 30
			}
		}
		return total
	}
	var lightTotal int64
	total := 0
	for i := range n.groups {
		if ina := n.groups[i].in; ina <= l {
			lightTotal += ina
			continue
		}
		total += max(n.serversFor(i, l), n.child(i).servers(l))
	}
	return total + int(1+2*lightTotal/l)
}

// run executes the node at load target l and returns the join result
// distributed over sub's servers; loads are recorded on sub and composed by
// the caller.
func (n *hierNode) run(sub *mpc.Cluster, l int64) *mpc.Dist {
	scale, alive := foldScalars(n.scalar, n.ring)
	if !alive {
		return mpc.NewDist(sub, n.schema)
	}
	if len(n.active) == 0 {
		out := mpc.NewDist(sub, n.schema)
		t := joinScalarTuples(n.scalar)
		out.Parts[0].Append(t, scale)
		return out
	}
	n.fold()
	if len(n.active) == 1 {
		return toDistInPlace(sub, n.active[0], n.ring)
	}
	n.group()
	if n.comps {
		return n.case2(sub, l)
	}
	return n.case1(sub, l)
}

// heavyOut is one heavy group's recursion: its server count, charges and
// result.
type heavyOut struct {
	pa    int
	stats mpc.Stats
	res   *mpc.Dist
}

// runGroup recurses on group i with its p_a servers.
func (n *hierNode) runGroup(i int, l int64) heavyOut {
	pa := n.serversFor(i, l)
	child := mpc.NewCluster(pa)
	chargeInput(child, int(n.groups[i].in))
	res := n.child(i).run(child, l)
	return heavyOut{pa: pa, stats: child.Snapshot(), res: res}
}

// case1 handles a single tree rooted at attribute x: one group per x-value.
func (n *hierNode) case1(sub *mpc.Cluster, l int64) *mpc.Dist {
	chargeLinear(sub, totalSize(n.active))
	out := mpc.NewDist(sub, unionSchema(n.active))

	// Pack light groups greedily to capacity l (parallel-packing), in value
	// order: pack i starts at group packs[i] and goes to server i mod P.
	var heavies, packs, lightLoads []int
	var curLightSize int64
	for i := range n.groups {
		ina := n.groups[i].in
		if ina > l {
			heavies = append(heavies, i)
			continue
		}
		if len(packs) == 0 || curLightSize+ina > l {
			if len(packs) > 0 {
				lightLoads = append(lightLoads, int(curLightSize))
			}
			packs = append(packs, i)
			curLightSize = 0
		}
		curLightSize += ina
	}
	if curLightSize > 0 {
		lightLoads = append(lightLoads, int(curLightSize))
	}
	n.joinLight(out, packs, l)
	if len(lightLoads) > 0 {
		perServer := make([]int, sub.P)
		for i, ld := range lightLoads {
			perServer[i%sub.P] += ld
		}
		sub.ChargeRound(perServer)
	}

	// Heavy groups recurse in parallel on disjoint server ranges — in the
	// model AND in wall-clock: each group gets its own sub-cluster, so the
	// recursions share no mutable state and run as forked tasks. Results
	// and statistics are merged in group order afterwards, which keeps the
	// output byte-identical to the serial loop for every worker count.
	outs := make([]heavyOut, len(heavies))
	runtime.Fork(len(heavies), func(i int) { outs[i] = n.runGroup(heavies[i], l) })
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

// joinLight solves every server's light groups with one localJoin: server
// s gets packs s, s+P, …, and pack i holds the light groups from packs[i]
// up to packs[i+1]. The server's groups go into the join in value order,
// and every active relation of a Case-1 node holds x, so x is in every
// stage's key: a probe row meets only its own group's rows, in their
// insertion order, and the rows come out exactly as one localJoin per group
// would append them.
func (n *hierNode) joinLight(out *mpc.Dist, packs []int, l int64) {
	batch := make([]*relation.Relation, len(n.sorted))
	for k, r := range n.sorted {
		batch[k] = &relation.Relation{Name: r.Name, Schema: r.Schema,
			Tuples: make([]relation.Tuple, 0, r.Size()), Annots: make([]int64, 0, r.Size())}
	}
	for s := 0; s < len(out.Parts) && s < len(packs); s++ {
		for k, r := range n.sorted {
			b := batch[k]
			b.Tuples, b.Annots = b.Tuples[:0], b.Annots[:0]
			for p := s; p < len(packs); p += len(out.Parts) {
				end := len(n.groups)
				if p+1 < len(packs) {
					end = packs[p+1]
				}
				for g := packs[p]; g < end; g++ {
					if n.groups[g].in > l {
						continue
					}
					lo, hi := n.starts[k][g], n.starts[k][g+1]
					b.Tuples = append(b.Tuples, r.Tuples[lo:hi]...)
					b.Annots = append(b.Annots, r.Annots[lo:hi]...)
				}
			}
		}
		localJoin(&out.Parts[s], out.Schema, batch, n.ring)
	}
}

// case2 handles k > 1 trees: a Cartesian product of components, computed
// on a p1 × … × pk grid with per-server cross products.
func (n *hierNode) case2(sub *mpc.Cluster, l int64) *mpc.Dist {
	k := len(n.groups)
	chargeLinear(sub, totalSize(n.active))

	// The grid's dimensions compute independently per component (each on
	// its own sub-cluster), so they run as parallel tasks, merged in
	// component order.
	dims := make([]int, k)
	results := make([]*mpc.Dist, k)
	stats := make([]mpc.Stats, k)
	runtime.Fork(k, func(i int) {
		if n.groups[i].in <= l {
			dims[i] = 1
		} else {
			dims[i] = n.serversFor(i, l)
		}
		child := mpc.NewCluster(dims[i])
		chargeInput(child, int(n.groups[i].in))
		results[i] = n.child(i).run(child, l)
		stats[i] = child.Snapshot()
	})
	sub.MergeGrid(stats)

	// Every grid cell (c1,…,ck) emits slice_1(c1) × … × slice_k(ck);
	// distinct cells cover disjoint result combinations, so mapping cells
	// onto sub's servers mod P never duplicates.
	out := mpc.NewDist(sub, unionSchema(n.active))
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
	for i, sl := range results {
		stages[i] = joinStage{src: identityPos(len(sl.Schema)), dst: out.Schema.Positions([]relation.Attr(sl.Schema))}
	}
	runtime.Fork(classes, func(r int) {
		cell := append([]joinStage(nil), stages...)
		// bind points cell at grid cell id's slices and returns the size of
		// their cross product.
		bind := func(id int) int {
			size := 1
			for i := k - 1; i >= 0; i-- {
				cell[i].part = &results[i].Parts[id%dims[i]]
				size *= cell[i].part.Len()
				id /= dims[i]
			}
			return size
		}
		rows := 0
		for id := r; id < total; id += sub.P {
			rows += bind(id)
		}
		out.Parts[r].Reserve(width, rows)
		for id := r; id < total; id += sub.P {
			bind(id)
			indexJoin(&out.Parts[r], width, cell, nil, n.ring)
		}
	})
	return out
}
