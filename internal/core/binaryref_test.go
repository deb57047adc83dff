package core

import (
	"math"

	"repro/internal/mpc"
	"repro/internal/primitives"
	"repro/internal/relation"
	"repro/internal/runtime"
)

// The retained routing of binaryJoin, kept as the reference the directory
// router is pinned against: every input tuple is widened with its key's
// (da, db) by a Lookup multi-search, the router reads heavy or light off
// those two columns, and the widened rows travel through the exchange. The
// body is the production one before routing moved to the directory,
// verbatim but for the shared degreeTable and newDirectory it now builds its
// directory with; its grid loops stay hand-written.

// The reference always runs both degree lookups. A side whose every row has
// a partner on the other side loses nothing to its lookup, and binaryJoin
// routes such a side without its semi-join; the reference notes each such
// lookup as a RefSkip, so a test can subtract exactly those charges.

// RefSkip is one degree lookup of the reference whose side had no dangling
// row: it opened round Round (an index into Snapshot().RoundMaxs), ran
// Rounds rounds, and charged Comm tuples and the Exchange counters.
type RefSkip struct {
	Round, Rounds, Comm int
	Exchange            mpc.ExchangeStats
}

// BinaryJoinRef is BinaryJoin on the retained routing, without an observer.
// heavy is the number of keys its directory holds, so a test can tell the
// grid path ran. It is exported for the external test package, which builds
// instances through gen.
func BinaryJoinRef(a, b *mpc.Dist, ring relation.Semiring, seed uint64) (res *mpc.Dist, heavy int, skips []RefSkip) {
	res, heavy = binaryJoinRef(a, b, a.Schema.Union(b.Schema), ring, seed, &skips)
	return res, heavy, skips
}

// YannakakisRef is Yannakakis in its default join order with every binary
// join on the retained routing.
func YannakakisRef(c *mpc.Cluster, in *Instance, seed uint64) (res *mpc.Dist, skips []RefSkip) {
	order := DefaultJoinOrder(in.Q)
	dists := LoadInstance(c, in)
	dists = FullReduce(in, dists)
	acc := dists[order[0]]
	for i := 1; i < len(order); i++ {
		layout := acc.Schema.Union(dists[order[i]].Schema)
		if i == len(order)-1 {
			layout = in.OutputSchema()
		}
		acc, _ = binaryJoinRef(acc, dists[order[i]], layout, in.Ring, seed+uint64(7*i), &skips)
	}
	return acc, skips
}

// PartneredSides counts the sides of a ⋈ b whose every row has a partner on
// the other side, and is 0 when the join is empty (a binary join returns
// before its semi-joins then): the semi-joins binaryJoin leaves out.
func PartneredSides(a, b *relation.Relation) int {
	shared := a.Schema.Intersect(b.Schema)
	ab, ba := naiveSemiJoin(a, b, shared).Size(), naiveSemiJoin(b, a, shared).Size()
	if ab == 0 {
		return 0
	}
	n := 0
	if ab == a.Size() {
		n++
	}
	if ba == b.Size() {
		n++
	}
	return n
}

// NaiveJoin is the oracle's in-memory join of two relations under the
// counting ring.
func NaiveJoin(a, b *relation.Relation) *relation.Relation {
	return naiveJoin(a, b, relation.CountRing)
}

// attachNoting is attachDegrees that notes the lookup in skips when every
// row of x has a partner in y.
func attachNoting(x, y *mpc.Dist, shared relation.Schema, jd *mpc.Dist, skips *[]RefSkip) *mpc.Dist {
	c := x.C
	round, comm, ex := c.Rounds(), c.TotalComm(), c.Exchange()
	res := attachDegrees(x, shared, jd)
	if naiveSemiJoin(x.ToRelation("x"), y.ToRelation("y"), shared).Size() == x.Size() {
		after := c.Exchange()
		*skips = append(*skips, RefSkip{Round: round, Rounds: c.Rounds() - round, Comm: c.TotalComm() - comm,
			Exchange: mpc.ExchangeStats{
				Exchanges:   after.Exchanges - ex.Exchanges,
				Tuples:      after.Tuples - ex.Tuples,
				ActiveDests: after.ActiveDests - ex.ActiveDests,
			}})
	}
	return res
}

func binaryJoinRef(a, b *mpc.Dist, outSchema relation.Schema, ring relation.Semiring, seed uint64, skips *[]RefSkip) (*mpc.Dist, int) {
	c := a.C
	shared := a.Schema.Intersect(b.Schema)

	// Per-key degrees on both sides, co-located by key.
	dA := primitives.CountByKey(a, shared, seed^0x1)
	dB := primitives.CountByKey(b, shared, seed^0x2)
	jd := degreeTable(shared, dA.ShuffleByAttrs(shared, seed^0x3), dB.ShuffleByAttrs(shared, seed^0x3))

	// OUT = Σ_k da·db and the heavy-key directory, known cluster-wide.
	out := int64(0)
	for s := range jd.Parts {
		part := &jd.Parts[s]
		for i := 0; i < part.Len(); i++ {
			t := part.Tuple(i)
			da, db := int64(t[len(t)-2]), int64(t[len(t)-1])
			out += da * db
		}
	}
	primitives.TotalCount(jd) // charges the coordinator aggregation

	if out == 0 {
		return mpc.NewDist(c, outSchema), 0
	}
	inSize := int64(a.Size() + b.Size())
	l0 := inSize/int64(c.P) + int64(math.Ceil(math.Sqrt(float64(out)/float64(c.P))))
	if l0 < 1 {
		l0 = 1
	}
	heavy := func(da, db int64) bool {
		return da > l0 || db > l0 || da*db > (out+int64(c.P)-1)/int64(c.P)
	}
	dir := newDirectory(jd, len(shared), l0, func(d relation.Tuple) bool { return heavy(int64(d[0]), int64(d[1])) })
	defer dir.idx.Release()
	c.ChargeDirectory(len(dir.cubes))

	// Attach (da, db) to every tuple (multi-search); tuples whose key is
	// missing from the directory side cannot join and are dropped here.
	ax := attachNoting(a, b, shared, jd, skips)
	bx := attachNoting(b, a, shared, jd, skips)

	aPosKey := ax.Positions(shared)
	bPosKey := bx.Positions(shared)

	routeSide := func(d *mpc.Dist, keyPos []int, isA bool, salt uint64) *mpc.Dist {
		whole := identityPos(len(d.Schema))
		return d.ReplicateAppend(func(it mpc.Item, dst []int) []int {
			n := len(it.T)
			da, db := int64(it.T[n-2]), int64(it.T[n-1])
			if !heavy(da, db) {
				return append(dst, int(mpc.HashTupleAt(it.T, keyPos, seed^0x10)%uint64(c.P)))
			}
			g := dir.cubes[dir.idx.First(it.T, keyPos)]
			rows, cols := g.dims[0], g.dims[1]
			h := mpc.HashTupleAt(it.T, whole, salt)
			if isA {
				row := int(h % uint64(rows))
				for col := 0; col < cols; col++ {
					dst = append(dst, (g.base+row*cols+col)%c.P)
				}
				return dst
			}
			col := int(h % uint64(cols))
			for row := 0; row < rows; row++ {
				dst = append(dst, (g.base+row*cols+col)%c.P)
			}
			return dst
		})
	}
	ra := routeSide(ax, aPosKey, true, seed^0x20)
	rb := routeSide(bx, bPosKey, false, seed^0x21)

	res := mpc.NewDist(c, outSchema)
	bExtra := []relation.Attr(b.Schema.Minus(a.Schema))
	stages := []joinStage{
		{src: identityPos(len(a.Schema)), dst: outSchema.Positions(a.Schema)},
		{keyPos: bPosKey, keyOut: outSchema.Positions(shared), src: rb.Positions(bExtra), dst: outSchema.Positions(bExtra)},
	}
	inputs := []*mpc.Dist{ra, rb}
	runtime.Fork(c.P, func(s int) {
		indexJoin(&res.Parts[s], len(outSchema), stagesAt(stages, inputs, s), nil, ring)
	})
	return res, len(dir.cubes)
}

// attachDegrees extends every tuple of d with the (da, db) of its key via
// the sorted lookup; tuples without a directory entry are dropped. Each
// kept row is written in place in its output part.
func attachDegrees(d *mpc.Dist, shared relation.Schema, jd *mpc.Dist) *mpc.Dist {
	keyAttrs := []relation.Attr(shared)
	outSchema := append(append(relation.Schema{}, d.Schema...), synthDeg(0), synthDeg(1))
	jdN := len(jd.Schema)
	return primitives.Lookup(d, keyAttrs, jd, keyAttrs, outSchema,
		func(out *mpc.Columns, it mpc.Item, r primitives.LookupResult) {
			if r.Found {
				t := out.AppendRow(it.A)
				n := copy(t, it.T)
				t[n], t[n+1] = r.DTuple[jdN-2], r.DTuple[jdN-1]
			}
		})
}

// stagesAt returns a copy of stages in which stage i reads server s's part
// of ds[i] — the per-server binding the retained references lay out.
func stagesAt(stages []joinStage, ds []*mpc.Dist, s int) []joinStage {
	local := append([]joinStage(nil), stages...)
	for i := range local {
		local[i].part = &ds[i].Parts[s]
	}
	return local
}
