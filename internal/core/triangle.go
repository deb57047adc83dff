package core

import (
	"math"

	"repro/internal/hypergraph"
	"repro/internal/mpc"
	"repro/internal/relation"
)

// Triangle computes the triangle join R1(B,C) ⋈ R2(A,C) ⋈ R3(A,B) with the
// worst-case optimal one-round HyperCube algorithm of [24]: servers form an
// s × s × s cube (s = ⌊p^{1/3}⌋), each attribute is hashed to one of s
// buckets, and each relation is replicated along its missing attribute's
// dimension. Its load is [24]'s (stats.Triangle) on skew-free instances,
// which Section 7's lower bound shows is also output-optimal once
// OUT ≳ IN·p^{1/3}.
//
// (The paper gives no matching upper bound below that range — the gap it
// leaves open; the harness plots the measured load against both branches of
// Thm 11's lower bound, stats.Thm11.)
//
//lint:load frac trust [24] (stats.Triangle): cube replication copies each relation p^(1/3)-fold, the bound per server on skew-free inputs
//lint:rounds const
func Triangle(c *mpc.Cluster, in *Instance, seed uint64) *mpc.Dist {
	a, b, cc := triangleAttrs(in)
	dists := LoadInstance(c, in)

	s := int(math.Cbrt(float64(c.P)))
	if s < 1 {
		s = 1
	}
	// One s × s × s cube over (a, b, c): a tuple's coordinate on a
	// dimension is the hash of that one column, read off the flat row, and
	// each relation is replicated along the dimension of the attribute it
	// misses.
	attrs := [3]relation.Attr{a, b, cc}
	grid := newCube([]int{s, s, s}, 0, c.P)
	route := func(d *mpc.Dist) *mpc.Dist {
		var dims [2]int   // the cube dimensions of d's two attributes
		var cols [2][]int // and the columns holding them
		n := 0
		for k, at := range attrs {
			if p := d.Schema.Pos(at); p >= 0 {
				dims[n], cols[n] = k, []int{p}
				n++
			}
		}
		at := func(t relation.Tuple, j int) coord {
			return coord{dims[j], int(mpc.HashTupleAt(t, cols[j], seed^uint64(attrs[dims[j]])) % uint64(s))}
		}
		return d.ReplicateAppend(func(it mpc.Item, dst []int) []int {
			return grid.appendServers(dst, at(it.T, 0), at(it.T, 1))
		})
	}
	// Identify which routed dist plays which role by schema.
	var dBC, dAC, dAB *mpc.Dist
	for _, d := range dists {
		switch r := route(d); {
		case !d.Schema.Has(a):
			dBC = r
		case !d.Schema.Has(b):
			dAC = r
		default:
			dAB = r
		}
	}

	// Per-server probes: each R1(B,C) row probes R3(A,B) by B, and each
	// such pair probes R2(A,C) by (A,C): every matching R2 row yields a
	// result, so duplicate rows keep their multiplicity (bag semantics, as
	// in core.Naive).
	outSchema := in.OutputSchema()
	outA, outB, outC := outSchema.Pos(a), outSchema.Pos(b), outSchema.Pos(cc)
	return joinInto(c, outSchema, in.Ring, pendingJoin{schema: outSchema, inputs: []*mpc.Dist{dBC, dAB, dAC}, stages: []joinStage{
		{src: dBC.Positions([]relation.Attr{b, cc}), dst: []int{outB, outC}},
		{keyPos: dAB.Positions([]relation.Attr{b}), keyOut: []int{outB},
			src: dAB.Positions([]relation.Attr{a}), dst: []int{outA}},
		{keyPos: dAC.Positions([]relation.Attr{a, cc}), keyOut: []int{outA, outC}},
	}})
}

// IsTriangleQuery reports whether q is the Section 7 triangle shape: three
// binary edges over three attributes, pairwise sharing one attribute. The
// one canonical shape check, shared with the engine's dispatch.
func IsTriangleQuery(q *hypergraph.Hypergraph) bool {
	if len(q.Edges) != 3 || len(q.Attrs()) != 3 {
		return false
	}
	for i := 0; i < 3; i++ {
		if len(q.Edges[i]) != 2 {
			return false
		}
		for j := i + 1; j < 3; j++ {
			if len(q.Edges[i].Intersect(q.Edges[j])) != 1 {
				return false
			}
		}
	}
	return true
}

// triangleAttrs validates the triangle shape and returns its attributes
// (a, b, c) named so that edges are (b,c), (a,c), (a,b) in some order.
func triangleAttrs(in *Instance) (relation.Attr, relation.Attr, relation.Attr) {
	if !IsTriangleQuery(in.Q) {
		panic("core: Triangle needs 3 binary relations pairwise sharing one attribute")
	}
	attrs := in.Q.Attrs()
	return attrs[0], attrs[1], attrs[2]
}
