package core

import (
	"math"

	"repro/internal/hypergraph"
	"repro/internal/mpc"
	"repro/internal/primitives"
	"repro/internal/relation"
)

// Line3 is the paper's Section 4.2 output-optimal algorithm for the line-3
// join R1(A,B) ⋈ R2(B,C) ⋈ R3(C,D), with load O(IN/p + √(IN·OUT/p)).
//
// After removing dangling tuples it computes OUT (an MPC primitive), sets
// the degree threshold τ = √(OUT/IN), and splits B-values by their degree
// in R1. The join then decomposes into two parts with different orders:
//
//	Q1 = R1^H ⋈ (R2^H ⋈ R3)   — |R2^H ⋈ R3| ≤ OUT/τ,
//	Q2 = (R1^L ⋈ R2^L) ⋈ R3   — |R1^L ⋈ R2^L| ≤ IN·τ,
//
// so no intermediate result exceeds √(IN·OUT) and the binary-join
// subroutine keeps every step within the target load. This is the paper's
// key observation that join ORDER has asymptotic consequences in MPC
// (Section 4.1) and that decomposing by degree always yields a good order
// for each part. The result is Q1 ∪ Q2 gathered by one mpc.Concat onto the
// output schema: each result row is copied once, on its own server.
//
//lint:load frac
//lint:rounds const
func Line3(c *mpc.Cluster, in *Instance, seed uint64) *mpc.Dist {
	return Line3WithTau(c, in, 0, seed)
}

// Line3WithTau runs the Section 4.2 algorithm with an explicit degree
// threshold τ (tau ≤ 0 selects the paper's balanced τ = √(OUT/IN)). The τ
// ablation sweeps this to show the balance point of equations (4) and (5).
//
//lint:load frac
//lint:rounds const
func Line3WithTau(c *mpc.Cluster, in *Instance, tauOverride int64, seed uint64) *mpc.Dist {
	b, _ := line3Attrs(in)

	dists := LoadInstance(c, in)
	dists = FullReduce(in, dists)
	r1, r2, r3 := dists[0], dists[1], dists[2]

	out := CountOutputDists(in.Q, dists, seed^0x200)
	outSchema := in.OutputSchema()
	if out == 0 {
		return mpc.NewDist(c, outSchema)
	}
	inSize := int64(in.IN())
	tau := tauOverride
	if tau <= 0 {
		tau = int64(math.Ceil(math.Sqrt(float64(out) / float64(inSize))))
	}
	if tau < 1 {
		tau = 1
	}

	// Step (1): degrees of B-values in R1 (sum-by-key), attached to the
	// tuples of R1 and R2 (multi-search), then heavy/light split.
	bAttr := []relation.Attr{b}
	degB := primitives.CountByKey(r1, bAttr, seed^0x300)
	r1H, r1L := splitByDegree(r1, bAttr, degB, tau)
	r2H, r2L := splitByDegree(r2, bAttr, degB, tau)

	// Step (2): two sub-joins with opposite orders.
	t23 := BinaryJoin(r2H, r3, in.Ring, seed^0x400, nil)
	q1 := BinaryJoin(r1H, t23, in.Ring, seed^0x401, nil)

	t12 := BinaryJoin(r1L, r2L, in.Ring, seed^0x402, nil)
	q2 := BinaryJoin(t12, r3, in.Ring, seed^0x403, nil)

	return mpc.Concat(outSchema, q1, q2)
}

// IsLine3Query reports whether q has the line-3 chain shape
// R1(A,B) ⋈ R2(B,C) ⋈ R3(C,D) that Line3 handles: the one canonical shape
// check, shared with the engine's dispatch.
func IsLine3Query(q *hypergraph.Hypergraph) bool {
	_, _, ok := line3Shape(q)
	return ok
}

// line3Shape returns (B, C), the two join attributes of the chain, and
// whether q has the line-3 shape at all.
func line3Shape(q *hypergraph.Hypergraph) (b, c relation.Attr, ok bool) {
	if len(q.Edges) != 3 {
		return 0, 0, false
	}
	bs := q.Edges[0].Intersect(q.Edges[1])
	cs := q.Edges[1].Intersect(q.Edges[2])
	if len(bs) != 1 || len(cs) != 1 || bs[0] == cs[0] ||
		!q.Edges[0].Intersect(q.Edges[2]).Equal(nil) {
		return 0, 0, false
	}
	return bs[0], cs[0], true
}

// line3Attrs is line3Shape with the panic the algorithms rely on.
func line3Attrs(in *Instance) (relation.Attr, relation.Attr) {
	b, c, ok := line3Shape(in.Q)
	if !ok {
		panic("core: Line3 query is not a line-3 chain")
	}
	return b, c
}

// splitByDegree attaches deg's annotation (0 when missing) per key and
// partitions d into (heavy, light) by threshold tau. One lookup round; the
// split itself is local.
func splitByDegree(d *mpc.Dist, keyAttrs []relation.Attr, deg *mpc.Dist, tau int64) (heavy, light *mpc.Dist) {
	heavy = primitives.Lookup(d, keyAttrs, deg, keyAttrs, d.Schema,
		func(out *mpc.Columns, it mpc.Item, r primitives.LookupResult) {
			if r.Found && r.DAnnot > tau {
				out.Append(it.T, it.A)
			}
		})
	light = primitives.Lookup(d, keyAttrs, deg, keyAttrs, d.Schema,
		func(out *mpc.Columns, it mpc.Item, r primitives.LookupResult) {
			if !r.Found || r.DAnnot <= tau {
				out.Append(it.T, it.A)
			}
		})
	return heavy, light
}
