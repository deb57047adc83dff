package core

import (
	"math"

	"repro/internal/hypergraph"
	"repro/internal/mpc"
	"repro/internal/primitives"
	"repro/internal/relation"
	"repro/internal/runtime"
)

// The retained assembly of AcyclicJoin's output, kept as the reference the
// one-Concat assembly is pinned against: every level projects each of its
// sub-join results onto the union of its attributes and folds them with a
// pairwise concatenation, and the top level projects the union once more
// onto the output schema. The algorithm around it is the production one,
// verbatim; only the assembly differs, and the two helpers below are the
// old Dist.Project and mpc.Concat bodies. Its step (3.1.3) join is a
// parameter, so the retained multiway join can stand in for the current one.

// AcyclicJoinRef is AcyclicJoin with the retained assembly. It is exported
// for the external test package, which builds the instances through gen.
func AcyclicJoinRef(c *mpc.Cluster, in *Instance, seed uint64) *mpc.Dist {
	return acyclicJoinRef(c, in, seed, MultiwayKeyedJoin)
}

// AcyclicJoinMultiwayRef is AcyclicJoinRef with the step (3.1.3) joins of
// its own levels run by the retained MultiwayKeyedJoin (multiwayref_test.go);
// joins counts them, so a test can tell that step ran.
func AcyclicJoinMultiwayRef(c *mpc.Cluster, in *Instance, seed uint64) (res *mpc.Dist, joins int) {
	res = acyclicJoinRef(c, in, seed, func(key relation.Schema, dists []*mpc.Dist, ring relation.Semiring, seed uint64) *mpc.Dist {
		joins++
		r, _ := multiwayKeyedJoinRef(key, dists, ring, seed)
		return r
	})
	return res, joins
}

// multiwayJoin is MultiwayKeyedJoin's signature, which the reference's step
// (3.1.3) calls through.
type multiwayJoin func(key relation.Schema, dists []*mpc.Dist, ring relation.Semiring, seed uint64) *mpc.Dist

func acyclicJoinRef(c *mpc.Cluster, in *Instance, seed uint64, multiway multiwayJoin) *mpc.Dist {
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
	return projectRef(acyclicRecRef(c, in.Q.Edges, dists, in.Ring, out, seed, 0, multiway), outSchema)
}

func acyclicRecRef(c *mpc.Cluster, edges []hypergraph.AttrSet, dists []*mpc.Dist,
	ring relation.Semiring, out int64, seed uint64, depth int, multiway multiwayJoin) *mpc.Dist {

	if len(dists) == 1 {
		return dists[0]
	}
	if len(dists) == 2 {
		return BinaryJoin(dists[0], dists[1], ring, seed^0x11, nil)
	}
	q := hypergraph.New(edges...)
	tree, ok := q.GYO()
	if !ok {
		panic("core: acyclicRec lost acyclicity")
	}
	e0, children := pickInternalNode(tree)
	if e0 < 0 {
		panic("core: no internal node in tree with >2 nodes")
	}

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

	k := len(children)
	si := make([][]relation.Attr, k)
	heavyC := make([]*mpc.Dist, k)
	lightC := make([]*mpc.Dist, k)
	for i, ch := range children {
		si[i] = []relation.Attr(edges[e0].Intersect(edges[ch]).Schema())
		deg := primitives.CountByKey(work[ch], si[i], seed^uint64(0x3000+i))
		heavyC[i], lightC[i] = splitByDegree(work[ch], si[i], deg, tau-1)
	}

	var eBar []int
	for i := range edges {
		if i != e0 && !containsInt(children, i) {
			eBar = append(eBar, i)
		}
	}

	var results []*mpc.Dist
	unionSchema := work[e0].Schema
	for _, d := range work {
		unionSchema = unionSchema.Union(d.Schema)
	}

	for mask := 0; mask < 1<<k; mask++ {
		pick := func(i int) *mpc.Dist {
			if mask&(1<<i) != 0 {
				return heavyC[i]
			}
			return lightC[i]
		}
		pseed := seed ^ uint64(0x5000+mask*64)
		if mask != 0 {
			h := 0
			for mask&(1<<h) == 0 {
				h++
			}
			if heavyC[h].Size() == 0 {
				continue
			}
			r0 := primitives.SemiJoin(work[e0], si[h], heavyC[h], si[h])
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
			results = append(results, BinaryJoin(heavyC[h], rPrime, ring, pseed^0x3, nil))
			continue
		}

		r0H, r0L := splitE0ByProduct(work[e0], si, lightC, tau, pseed)

		if r0H.Size() > 0 {
			sub := []*mpc.Dist{r0H}
			subEdges := []hypergraph.AttrSet{edges[e0]}
			for _, e := range eBar {
				sub = append(sub, work[e])
				subEdges = append(subEdges, edges[e])
			}
			rp0 := subJoin(subEdges, sub, ring, pseed^0x10)
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
				results = append(results,
					multiway(edges[e0].Schema(), parts, ring, pseed^0x30))
			}
		}

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
				results = append(results, rl)
				continue
			}
			recEdges := []hypergraph.AttrSet{hypergraph.NewAttrSet([]relation.Attr(rl.Schema)...)}
			recDists := []*mpc.Dist{rl}
			for _, e := range eBar {
				recEdges = append(recEdges, edges[e])
				recDists = append(recDists, work[e])
			}
			results = append(results,
				acyclicRecRef(c, recEdges, recDists, ring, out, pseed^0x50, depth+1, multiway))
		}
	}

	final := mpc.NewDist(c, unionSchema)
	for _, r := range results {
		if r.Size() == 0 {
			continue
		}
		final = concatRef(final, projectRef(r, unionSchema))
	}
	return final
}

// projectRef is the retained Dist.Project: the collection itself on its
// own schema, else one gathered copy per part.
func projectRef(d *mpc.Dist, schema relation.Schema) *mpc.Dist {
	if d.Schema.Equal(schema) {
		return d
	}
	pos := d.Positions(schema)
	out := &mpc.Dist{C: d.C, Schema: schema, Parts: make([]mpc.Columns, d.C.P)}
	runtime.Fork(len(d.Parts), func(s int) {
		out.Parts[s].AppendProjected(&d.Parts[s], pos)
	})
	return out
}

// concatRef is the retained mpc.Concat: a union of collections sharing a
// schema, every output part sized once for all its sources.
func concatRef(ds ...*mpc.Dist) *mpc.Dist {
	out := &mpc.Dist{C: ds[0].C, Schema: ds[0].Schema, Parts: make([]mpc.Columns, ds[0].C.P)}
	for _, d := range ds {
		if !d.Schema.Equal(out.Schema) {
			panic("mpc: Concat schema mismatch")
		}
	}
	for s := range out.Parts {
		n, w := 0, 0
		for _, d := range ds {
			if part := &d.Parts[s]; part.Len() > 0 {
				n, w = n+part.Len(), part.Width()
			}
		}
		out.Parts[s].Reserve(w, n)
		for _, d := range ds {
			out.Parts[s].AppendColumns(&d.Parts[s])
		}
	}
	return out
}
