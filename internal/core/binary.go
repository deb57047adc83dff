package core

import (
	"math"

	"repro/internal/mpc"
	"repro/internal/primitives"
	"repro/internal/relation"
	"repro/internal/runtime"
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
// A tuple whose key has no partner cannot join; a side's semi-join against
// the degree table (3 rounds) drops such tuples before routing. The table
// holds only keys present on both sides, so Σ_k da = |a ⋉ b|: when that
// equals |a|, the semi-join would return a unchanged, and a is routed as
// it is (b likewise). The two sums ride the coordinator aggregation that
// already yields OUT, and routing reads only a row and the broadcast
// directory, so every server receives the same rows either way — a skipped
// side's in its source order. After a full reducer no side dangles, so
// every step of Yannakakis' fold and of acyclic's subJoin folds routes both
// sides as they are; line3's joins, acyclic's other joins and aggregate's
// frontier fold skip whichever sides are partnered.
//
//lint:load frac trust [8,18]: degree-threshold grids cap each server at IN/p + sqrt(OUT/p)
//lint:rounds const
func binaryJoin(a, b *mpc.Dist, outSchema relation.Schema, ring relation.Semiring, seed uint64) *mpc.Dist {
	c := a.C
	shared := a.Schema.Intersect(b.Schema)

	// Per-key degrees on both sides, co-located by key and merged.
	dA := primitives.CountByKey(a, shared, seed^0x1)
	dB := primitives.CountByKey(b, shared, seed^0x2)
	jd := degreeTable(shared, dA.ShuffleByAttrs(shared, seed^0x3), dB.ShuffleByAttrs(shared, seed^0x3))
	kw := len(shared)

	// OUT = Σ_k da·db, |a ⋉ b| = Σ_k da, |b ⋉ a| = Σ_k db and the
	// heavy-key directory, known cluster-wide.
	out, aJoin, bJoin := int64(0), 0, 0
	for s := range jd.Parts {
		part := &jd.Parts[s]
		for i := 0; i < part.Len(); i++ {
			t := part.Tuple(i)
			da, db := t[kw], t[kw+1]
			out += int64(da) * int64(db)
			aJoin += int(da)
			bJoin += int(db)
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
	perServer := (out + int64(c.P) - 1) / int64(c.P)
	dir := newDirectory(jd, kw, l0, func(d relation.Tuple) bool {
		da, db := int64(d[0]), int64(d[1])
		return da > l0 || db > l0 || da*db > perServer
	})
	defer dir.idx.Release()
	chargeDirectory(c, len(dir.cubes))

	// Tuples whose key is missing from jd are dropped here (jd has one row
	// per key, so the semi-join is one multi-search) unless there are none.
	ax, bx := a, b
	if aJoin < a.Size() {
		ax = primitives.SemiJoin(a, shared, jd, shared)
	}
	if bJoin < b.Size() {
		bx = primitives.SemiJoin(b, shared, jd, shared)
	}

	aPosKey := ax.Positions(shared)
	bPosKey := bx.Positions(shared)

	// A tuple is heavy iff its key is in the directory. a fixes dimension 0
	// of its key's cube and b dimension 1, each at the hash of the row
	// followed by the key's (da, db); a tuple is replicated along the other
	// dimension. Destinations are hashed straight off the flat rows and
	// appended to the exchange's per-task scratch: routing allocates
	// nothing per row.
	routeSide := func(d *mpc.Dist, keyPos []int, dim int, salt uint64) *mpc.Dist {
		whole := identityPos(len(d.Schema))
		return d.ReplicateAppend(func(it mpc.Item, dst []int) []int {
			r := -1
			if len(dir.cubes) > 0 {
				r = dir.idx.First(it.T, keyPos)
			}
			if r < 0 {
				return append(dst, int(mpc.HashTupleAt(it.T, keyPos, seed^0x10)%uint64(c.P)))
			}
			cb, deg := &dir.cubes[r], dir.rows.Tuple(r)[kw:]
			h := mpc.HashTupleAtWith(it.T, whole, salt, deg[0], deg[1])
			return cb.appendServers(dst, coord{dim, int(h % uint64(cb.dims[dim]))})
		})
	}
	ra := routeSide(ax, aPosKey, 0, seed^0x20)
	rb := routeSide(bx, bPosKey, 1, seed^0x21)

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
