package core

import (
	"math"
	"slices"
	"sort"

	"repro/internal/mpc"
	"repro/internal/primitives"
	"repro/internal/relation"
	"repro/internal/runtime"
)

// Synthetic attributes of the degree table jd's two degree columns.
// Negative ids cannot collide with query attributes.
const (
	synthDA relation.Attr = -101
	synthDB relation.Attr = -102
)

// BinaryJoin computes a ⋈ b with the output-optimal load O(IN/p + √(OUT/p))
// of [8,18], which the paper uses as its basic subroutine.
//
// Keys are split by degree: a key is heavy when either side's degree
// exceeds the target load L0 = IN/p + √(OUT/p) or its output da·db exceeds
// OUT/p. Each heavy key gets its own ⌈da/L0⌉ × ⌈db/L0⌉ server grid
// (fragment-replicate), which bounds its per-server input by 2·L0 and
// output by ~OUT/p; light keys are hashed. Tuples are routed by their key's
// entry in the broadcast directory of O(p) heavy keys, not by degrees they
// carry. The result stays distributed on the servers that produced it, its
// rows laid out as a's columns followed by b's new ones.
//
// em (optional) observes the finished result row by row. It is the one
// observer parameter left on a join: the top-level algorithms just return
// their Dist and the engine reads it, but the frozen benchmark traces this
// five-argument form.
//
//lint:load frac
//lint:rounds const
func BinaryJoin(a, b *mpc.Dist, ring relation.Semiring, seed uint64, em mpc.Emitter) *mpc.Dist {
	res := binaryJoin(a, b, a.Schema.Union(b.Schema), ring, seed)
	EmitDist(res, res.Schema, em)
	return res
}

// EmitDist reports every row of d, projected onto schema, to em (free, as
// emit() is in the model): parts in server order, rows in part order, each
// through one scratch tuple the sink only borrows. em may be nil.
func EmitDist(d *mpc.Dist, schema relation.Schema, em mpc.Emitter) {
	if em == nil {
		return
	}
	pos := d.Positions(schema)
	t := make(relation.Tuple, len(pos))
	for s := range d.Parts {
		part := &d.Parts[s]
		for i := 0; i < part.Len(); i++ {
			src := part.Tuple(i)
			for j, p := range pos {
				t[j] = src[p]
			}
			em.Emit(s, t, part.Annot(i))
		}
	}
}

// binaryJoin is BinaryJoin with the result rows laid out as outSchema, any
// order of the two schemas' union: the local join writes each row where it
// will live, so a caller that knows the final layout (Yannakakis' last
// step) returns parts that need no projection.
//
//lint:load frac trust Theorem 5: degree-threshold grids cap each server at IN/p + sqrt(IN*OUT/p)
//lint:rounds const
func binaryJoin(a, b *mpc.Dist, outSchema relation.Schema, ring relation.Semiring, seed uint64) *mpc.Dist {
	c := a.C
	shared := a.Schema.Intersect(b.Schema)

	// Per-key degrees on both sides, co-located by key.
	dA := primitives.CountByKey(a, shared, seed^0x1)
	dB := primitives.CountByKey(b, shared, seed^0x2)
	jd := joinDegrees(dA, dB, shared, seed^0x3)

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
		return mpc.NewDist(c, outSchema)
	}
	inSize := int64(a.Size() + b.Size())
	l0 := inSize/int64(c.P) + int64(math.Ceil(math.Sqrt(float64(out)/float64(c.P))))
	if l0 < 1 {
		l0 = 1
	}
	dir := buildGrid(jd, len(shared), l0, out, c.P)
	defer dir.idx.Release()
	chargeDirectory(c, len(dir.grids))

	// Tuples whose key is missing from jd cannot join and are dropped here
	// (jd has one row per key, so the semi-join is one multi-search).
	ax := primitives.SemiJoin(a, shared, jd, shared)
	bx := primitives.SemiJoin(b, shared, jd, shared)

	aPosKey := ax.Positions(shared)
	bPosKey := bx.Positions(shared)

	// A tuple is heavy iff its key is in the directory (buildGrid admits
	// exactly the keys over the degree thresholds); its grid cell hashes
	// the row followed by the key's (da, db). Destinations are hashed
	// straight off the flat rows and appended to the exchange's per-task
	// scratch: routing allocates nothing per row.
	routeSide := func(d *mpc.Dist, keyPos []int, isA bool, salt uint64) *mpc.Dist {
		whole := identityPos(len(d.Schema))
		return d.ReplicateAppend(func(it mpc.Item, dst []int) []int {
			r := -1
			if len(dir.grids) > 0 {
				r = dir.idx.First(it.T, keyPos)
			}
			if r < 0 {
				return append(dst, int(mpc.HashTupleAt(it.T, keyPos, seed^0x10)%uint64(c.P)))
			}
			g := dir.grids[r]
			h := mpc.HashTupleAtWith(it.T, whole, salt, g.da, g.db)
			if isA {
				row := int(h % uint64(g.rows))
				for col := 0; col < g.cols; col++ {
					dst = append(dst, (g.base+row*g.cols+col)%c.P)
				}
				return dst
			}
			col := int(h % uint64(g.cols))
			for row := 0; row < g.rows; row++ {
				dst = append(dst, (g.base+row*g.cols+col)%c.P)
			}
			return dst
		})
	}
	ra := routeSide(ax, aPosKey, true, seed^0x20)
	rb := routeSide(bx, bPosKey, false, seed^0x21)

	// Local join per server (indexJoin, probing a's rows against b's);
	// results are born where they are produced. Servers join in parallel —
	// each writes only its own part.
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
	return res
}

// gridInfo describes the server grid of one heavy key and its degrees.
type gridInfo struct {
	base, rows, cols int
	da, db           relation.Value
}

// gridDir is the heavy-key directory: one row of keys per heavy key, found
// by value through idx; grids[r] is the grid of the key in row r.
type gridDir struct {
	keys  mpc.Columns
	idx   mpc.RowIndex
	grids []gridInfo
}

// joinDegrees co-locates the two degree tables by key and merges them into
// one table with schema shared ++ (synthDA, synthDB); keys present on only
// one side are dropped (they cannot contribute join results).
func joinDegrees(dA, dB *mpc.Dist, shared relation.Schema, salt uint64) *mpc.Dist {
	c := dA.C
	keyAttrs := []relation.Attr(shared)
	sa := dA.ShuffleByKey(dA.Positions(keyAttrs), salt)
	sb := dB.ShuffleByKey(dB.Positions(keyAttrs), salt)
	schema := append(append(relation.Schema{}, shared...), synthDA, synthDB)
	out := mpc.NewDist(c, schema)
	posA := sa.Positions(keyAttrs)
	posB := sb.Positions(keyAttrs)
	for s := range sa.Parts {
		pa, pb := &sa.Parts[s], &sb.Parts[s]
		if pa.Len() == 0 || pb.Len() == 0 {
			continue
		}
		bdeg := mpc.IndexRows(pb, posB)
		out.Parts[s].Reserve(len(schema), pa.Len())
		for i := 0; i < pa.Len(); i++ {
			tup := pa.Tuple(i)
			j := bdeg.First(tup, posA)
			if j < 0 {
				continue
			}
			t := out.Parts[s].AppendRow(1)
			for k, p := range posA {
				t[k] = tup[p]
			}
			t[len(posA)], t[len(posA)+1] = relation.Value(pa.Annot(i)), relation.Value(pb.Annot(j))
		}
		bdeg.Release()
	}
	return out
}

// buildGrid assigns a server grid to every heavy key, deterministically by
// key order. Σ grid sizes = O(p) by the degree thresholds. jd's rows are
// the kw key columns followed by (da, db).
func buildGrid(jd *mpc.Dist, kw int, l0, out int64, p int) *gridDir {
	var heavies []relation.Tuple
	perServer := (out + int64(p) - 1) / int64(p)
	for s := range jd.Parts {
		part := &jd.Parts[s]
		for i := 0; i < part.Len(); i++ {
			t := part.Tuple(i)
			if da, db := int64(t[kw]), int64(t[kw+1]); da > l0 || db > l0 || da*db > perServer {
				heavies = append(heavies, t)
			}
		}
	}
	sort.Slice(heavies, func(i, j int) bool { return slices.Compare(heavies[i][:kw], heavies[j][:kw]) < 0 })
	dir := &gridDir{grids: make([]gridInfo, len(heavies))}
	dir.keys.Reserve(kw, len(heavies))
	base := 0
	for i, h := range heavies {
		rows := int((int64(h[kw]) + l0 - 1) / l0)
		cols := int((int64(h[kw+1]) + l0 - 1) / l0)
		if rows < 1 {
			rows = 1
		}
		if cols < 1 {
			cols = 1
		}
		// A single key's grid must not wrap around the cluster, or a pair
		// would meet on two servers and be reported twice.
		dims := []int{rows, cols}
		size := clampDims(dims, p)
		copy(dir.keys.AppendRow(1), h[:kw])
		dir.grids[i] = gridInfo{base: base % p, rows: dims[0], cols: dims[1], da: h[kw], db: h[kw+1]}
		base += size
	}
	dir.idx = mpc.IndexRows(&dir.keys, identityPos(kw))
	return dir
}

// chargeDirectory charges gathering n directory entries to the coordinator
// and broadcasting them to every server.
//
//lint:load const trust callers pass O(p) directory entries, set by degree thresholds, not by the data
func chargeDirectory(c *mpc.Cluster, n int) {
	if n == 0 {
		return
	}
	c.Charge(0, n)
	loads := make([]int, c.P)
	for i := range loads {
		loads[i] = n
	}
	c.ChargeRound(loads)
}
