package core

import (
	"math"

	"repro/internal/mpc"
	"repro/internal/primitives"
	"repro/internal/relation"
)

// Line3Ref is Line3 with the retained assembly, kept as the reference the
// one-result assembly is pinned against: the two sub-joins' last binary
// joins build their own results (BinaryJoin), which one mpc.Concat gathers
// onto the output schema. The algorithm around it is the production one,
// verbatim, with the same seeds. pieces counts the non-empty sub-join
// results, so a test can tell that both sides of the union ran. It is
// exported for the external test package, which builds the instances
// through gen.
func Line3Ref(c *mpc.Cluster, in *Instance, seed uint64) (res *mpc.Dist, pieces int) {
	b, _ := line3Attrs(in)
	dists := FullReduce(in, LoadInstance(c, in))
	r1, r2, r3 := dists[0], dists[1], dists[2]
	out := CountOutputDists(in.Q, dists, seed^0x200)
	outSchema := in.OutputSchema()
	if out == 0 {
		return mpc.NewDist(c, outSchema), 0
	}
	tau := max(int64(math.Ceil(math.Sqrt(float64(out)/float64(in.IN())))), 1)
	bAttr := []relation.Attr{b}
	degB := primitives.CountByKey(r1, bAttr, seed^0x300)
	r1H, r1L := splitByDegree(r1, bAttr, degB, tau)
	r2H, r2L := splitByDegree(r2, bAttr, degB, tau)

	t23 := BinaryJoin(r2H, r3, in.Ring, seed^0x400, nil)
	q1 := BinaryJoin(r1H, t23, in.Ring, seed^0x401, nil)
	t12 := BinaryJoin(r1L, r2L, in.Ring, seed^0x402, nil)
	q2 := BinaryJoin(t12, r3, in.Ring, seed^0x403, nil)
	for _, q := range []*mpc.Dist{q1, q2} {
		if q.Size() > 0 {
			pieces++
		}
	}
	return mpc.Concat(outSchema, q1, q2), pieces
}
