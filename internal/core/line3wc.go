package core

import (
	"math"

	"repro/internal/mpc"
	"repro/internal/relation"
)

// Line3WorstCase is the worst-case optimal one-round algorithm for the
// line-3 join [19,24]: a √p × √p server grid with shares on the two join
// attributes B and C. R1(A,B) replicates along the C dimension, R3(C,D)
// along the B dimension, and R2(B,C) lands on exactly one server; the load
// is [19,24]'s (stats.WorstCaseLine3) regardless of OUT.
//
// Section 4.3 shows this bound is output-optimal exactly when OUT ≥ p·IN,
// completing the paper's three-regime picture of the line-3 join:
// OUT ≤ IN → linear (Yannakakis); IN < OUT ≤ p·IN → Thm 7 (Line3);
// OUT > p·IN → [19,24] (this algorithm).
//
// The degree-based sub-bucketing that [24] adds for heavy B/C values is
// omitted here: the harness runs this algorithm on the paper's balanced
// lower-bound instances (Figure 4), where the plain grid already attains
// the bound. Skewed workloads should use Line3/AcyclicJoin instead.
//
//lint:load frac trust Section 4.3: the sqrt(p) x sqrt(p) grid replicates each endpoint relation sqrt(p)-fold, IN/sqrt(p) per server
//lint:rounds const
func Line3WorstCase(c *mpc.Cluster, in *Instance, seed uint64) *mpc.Dist {
	b, cAttr := line3Attrs(in)
	dists := LoadInstance(c, in)
	r1, r2, r3 := dists[0], dists[1], dists[2]

	s := int(math.Sqrt(float64(c.P)))
	if s < 1 {
		s = 1
	}
	p1b := r1.Positions([]relation.Attr{b})
	p2b, p2c := r2.Positions([]relation.Attr{b}), r2.Positions([]relation.Attr{cAttr})
	p3c := r3.Positions([]relation.Attr{cAttr})
	// Grid coordinates are hashes of the one join column, read off the flat
	// row (bit-identical to hashing its encoded value): B fixes dimension 0
	// of the √p × √p cube, C dimension 1.
	grid := newCube([]int{s, s}, 0, c.P)
	hb := func(t relation.Tuple, pos []int) coord {
		return coord{0, int(mpc.HashTupleAt(t, pos, seed^0x1) % uint64(s))}
	}
	hc := func(t relation.Tuple, pos []int) coord {
		return coord{1, int(mpc.HashTupleAt(t, pos, seed^0x2) % uint64(s))}
	}

	// R1 → row h(b), all columns; R2 → one cell; R3 → column h(c), all rows.
	g1 := r1.ReplicateAppend(func(it mpc.Item, dst []int) []int { return grid.appendServers(dst, hb(it.T, p1b)) })
	g2 := r2.ReplicateAppend(func(it mpc.Item, dst []int) []int {
		return grid.appendServers(dst, hb(it.T, p2b), hc(it.T, p2c))
	})
	g3 := r3.ReplicateAppend(func(it mpc.Item, dst []int) []int { return grid.appendServers(dst, hc(it.T, p3c)) })

	// Per-server joins: each R2(B,C) row probes R1 by B, then R3 by C.
	outSchema := in.OutputSchema()
	aAttrs := []relation.Attr(r1.Schema.Minus(relation.NewSchema(b)))
	dAttrs := []relation.Attr(r3.Schema.Minus(relation.NewSchema(cAttr)))
	bOut, cOut := outSchema.Positions([]relation.Attr{b}), outSchema.Positions([]relation.Attr{cAttr})
	return joinInto(c, outSchema, in.Ring, pendingJoin{schema: outSchema, inputs: []*mpc.Dist{g2, g1, g3}, stages: []joinStage{
		{src: []int{p2b[0], p2c[0]}, dst: []int{bOut[0], cOut[0]}},
		{keyPos: p1b, keyOut: bOut, src: g1.Positions(aAttrs), dst: outSchema.Positions(aAttrs)},
		{keyPos: p3c, keyOut: cOut, src: g3.Positions(dAttrs), dst: outSchema.Positions(dAttrs)},
	}})
}
