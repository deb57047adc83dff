package core

import (
	"cmp"
	"slices"

	"repro/internal/mpc"
	"repro/internal/primitives"
	"repro/internal/relation"
	"repro/internal/runtime"
)

// MultiwayKeyedJoin joins m relations that all contain the key attributes
// and whose non-key attributes are pairwise disjoint: the result groups by
// key and forms, within each group, the cross product of the relations'
// extensions. This is the tall-flat join of step (3.1.3) in Section 5.1
// (key = e0's attributes), and — with an empty key — the HyperCube
// algorithm [3] for Cartesian products.
//
// Allocation is instance-optimal in the paper's sense: the target load L is
// the smallest value with Σ_v Π_i ⌈d_i(v)/L⌉ ≤ 2p over the keys needing a
// grid, which mirrors the per-instance lower bound (2): L ≈ max_S
// (|Q(R,S)|/p)^{1/|S|}. Each such key gets a ⌈d_1/L⌉ × … × ⌈d_m/L⌉
// hypercube of servers; light keys are hashed.
//
//lint:load frac trust the per-key hypercubes target the instance-optimal L of bound (2); light keys stay at IN/p
//lint:rounds const
func MultiwayKeyedJoin(key relation.Schema, dists []*mpc.Dist, ring relation.Semiring, seed uint64) *mpc.Dist {
	if len(dists) == 0 {
		panic("core: MultiwayKeyedJoin of nothing")
	}
	c := dists[0].C
	m := len(dists)
	outSchema := dists[0].Schema
	for _, d := range dists[1:] {
		extra := d.Schema.Minus(outSchema)
		if len(extra)+len(key) != len(d.Schema) {
			panic("core: MultiwayKeyedJoin relations must overlap only on the key")
		}
		outSchema = outSchema.Union(d.Schema)
	}
	if m == 1 {
		return dists[0]
	}
	keyAttrs := []relation.Attr(key)

	// Per-relation degree tables, co-located by key (same salt) and merged.
	degs := make([]*mpc.Dist, m)
	for i, d := range dists {
		degs[i] = primitives.CountByKey(d, keyAttrs, seed^uint64(0x600+i)).
			ShuffleByAttrs(keyAttrs, seed^0x700)
	}
	jd := degreeTable(key, degs...)
	kw := len(key)

	inSize := 0
	for _, d := range dists {
		inSize += d.Size()
	}
	l0 := chooseLoad(jd, kw, inSize, c.P)
	dir := newDirectory(jd, kw, l0, func(d relation.Tuple) bool {
		return slices.ContainsFunc(d, func(v relation.Value) bool { return int64(v) > l0 })
	})
	defer dir.idx.Release()
	chargeDirectory(c, len(dir.cubes))

	// The joinable keys as one flat part indexed by key value, so a routed
	// tuple is checked without building a key string.
	var keys mpc.Columns
	keys.Reserve(len(jd.Schema), jd.Size())
	for s := range jd.Parts {
		keys.AppendColumns(&jd.Parts[s])
	}
	keyIdx := mpc.IndexRows(&keys, identityPos(kw))
	defer keyIdx.Release()

	// Route every relation: light keys by hash; relation i fixes dimension
	// i of its heavy key's cube and is replicated along the others.
	routed := make([]*mpc.Dist, m)
	for i, d := range dists {
		idx := i
		pos := d.Positions(keyAttrs)
		whole := identityPos(len(d.Schema))
		// Tuples of keys absent from any relation cannot join; an
		// uncharged local filter against the gathered degree table drops
		// them (the degrees come from SumByKey's hash shuffle, so no
		// multi-search carries them). By binaryJoin's Σ-degree identity the
		// filter is the identity exactly when no relation dangles; when
		// one does, the semi-join it stands for goes uncharged (ROADMAP
		// item 14).
		joinable := d.FilterLocal(func(it mpc.Item) bool { return keyIdx.First(it.T, pos) >= 0 })
		routed[i] = joinable.ReplicateAppend(func(it mpc.Item, dst []int) []int {
			r := -1
			if len(dir.cubes) > 0 {
				r = dir.idx.First(it.T, pos)
			}
			if r < 0 {
				return append(dst, int(mpc.HashTupleAt(it.T, pos, seed^0x800)%uint64(c.P)))
			}
			cb := &dir.cubes[r]
			x := int(mpc.HashTupleAt(it.T, whole, seed^uint64(0x900+idx)) % uint64(cb.dims[idx]))
			return cb.appendServers(dst, coord{idx, x})
		})
	}

	// Local per-key cross products (indexJoin): relation 0's rows, visited
	// in key order, probe the other relations by key. Servers run in
	// parallel — server s writes only res.Parts[s] — and emission runs
	// afterwards in server order, the exact serial sequence.
	res := mpc.NewDist(c, outSchema)
	keyOut := outSchema.Positions(keyAttrs)
	keyIn := routed[0].Positions(keyAttrs)
	all0 := identityPos(len(routed[0].Schema))
	stages := make([]joinStage, m)
	stages[0] = joinStage{src: all0, dst: all0}
	for i, d := range routed[1:] {
		extras := []relation.Attr(d.Schema.Minus(key))
		stages[i+1] = joinStage{keyPos: d.Positions(keyAttrs), keyOut: keyOut,
			src: d.Positions(extras), dst: outSchema.Positions(extras)}
	}
	runtime.Fork(c.P, func(s int) {
		// With an empty key (HyperCube) source order is key order already.
		var order []int32
		if probe := &routed[0].Parts[s]; len(keyIn) > 0 {
			order = make([]int32, probe.Len())
			for i := range order {
				order[i] = int32(i)
			}
			slices.SortStableFunc(order, func(a, b int32) int {
				ta, tb := probe.Tuple(int(a)), probe.Tuple(int(b))
				for _, p := range keyIn {
					if d := cmp.Compare(ta[p], tb[p]); d != 0 {
						return d
					}
				}
				return 0
			})
		}
		indexJoin(&res.Parts[s], len(outSchema), stagesAt(stages, routed, s), order, ring)
	})
	return res
}

// chooseLoad binary-searches the smallest per-relation load target L ≥ IN/p
// whose heavy keys need at most 2p grid cells in total; jd is the degree
// table (kw key columns, then one degree per relation).
func chooseLoad(jd *mpc.Dist, kw, inSize, p int) int64 {
	lo := int64(inSize/p) + 1
	hi := int64(1)
	for s := range jd.Parts {
		part := &jd.Parts[s]
		for i := 0; i < part.Len(); i++ {
			for _, d := range part.Tuple(i)[kw:] {
				hi = max(hi, int64(d))
			}
		}
	}
	if hi < lo {
		hi = lo
	}
	cells := func(l int64) int64 {
		var total int64
		for s := range jd.Parts {
			part := &jd.Parts[s]
			for i := 0; i < part.Len(); i++ {
				cell := int64(1)
				gridded := false
				for _, d := range part.Tuple(i)[kw:] {
					dim := (int64(d) + l - 1) / l
					if dim > 1 {
						gridded = true
					}
					cell *= dim
				}
				if gridded {
					total += cell
				}
				if total > 1<<40 {
					return total
				}
			}
		}
		return total
	}
	for lo < hi {
		mid := lo + (hi-lo)/2
		if cells(mid) <= int64(2*p) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}
