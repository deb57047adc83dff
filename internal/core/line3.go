package core

import (
	"math"

	"repro/internal/hypergraph"
	"repro/internal/mpc"
	"repro/internal/primitives"
	"repro/internal/relation"
)

// Line3WithTau is the paper's Section 4.2 output-optimal algorithm for the
// line-3 join R1(A,B) ⋈ R2(B,C) ⋈ R3(C,D), with the load of Thm 7
// (stats.Thm7).
//
// After removing dangling tuples it computes OUT (Cor. 4's fold, which runs
// no reducer of its own: dangling tuples only add Zero to a y = ∅ fold, so
// one reducer serves both the count and the joins), sets the degree
// threshold τ = √(OUT/IN), and splits B-values by their degree in R1. The
// join then decomposes into two parts with different orders:
//
//	Q1 = R1^H ⋈ (R2^H ⋈ R3)   — |R2^H ⋈ R3| ≤ OUT/τ,
//	Q2 = (R1^L ⋈ R2^L) ⋈ R3   — |R1^L ⋈ R2^L| ≤ IN·τ,
//
// so neither intermediate exceeds OUT/τ = IN·τ and the binary-join
// subroutine keeps every step within the target load. This is the paper's
// key observation that join ORDER has asymptotic consequences in MPC
// (Section 4.1) and that decomposing by degree always yields a good order
// for each part. The result is Q1 ∪ Q2: the two last joins' local kernels
// write into one result laid out as the output schema (joinInto), so each
// result row is written once, on its own server, and never copied.
//
// tauOverride > 0 replaces the balanced threshold with an explicit τ: the τ
// ablation sweeps it to show the balance point of equations (4) and (5).
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
	q1 := binaryJoin(r1H, t23, seed^0x401)

	t12 := BinaryJoin(r1L, r2L, in.Ring, seed^0x402, nil)
	q2 := binaryJoin(t12, r3, seed^0x403)

	return joinInto(c, outSchema, in.Ring, q1, q2)
}

// IsLine3Query reports whether q has the line-3 chain shape
// R1(A,B) ⋈ R2(B,C) ⋈ R3(C,D) that Line3WithTau handles: the one canonical
// shape check, shared with the engine's dispatch.
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
// partitions d into (heavy, light) by threshold tau: one multi-search
// writing both sides, the split itself local.
func splitByDegree(d *mpc.Dist, keyAttrs []relation.Attr, deg *mpc.Dist, tau int64) (heavy, light *mpc.Dist) {
	return primitives.SplitLookup(d, keyAttrs, deg, keyAttrs,
		func(r primitives.LookupResult) bool { return r.Found && r.DAnnot > tau })
}
