package core

import (
	"cmp"
	"slices"
	"sort"

	"repro/internal/mpc"
	"repro/internal/primitives"
	"repro/internal/relation"
	"repro/internal/runtime"
)

// The retained MultiwayKeyedJoin, kept as the reference the per-key
// HyperCube rewrite (degreeTable, newDirectory, cube) is pinned against:
// per-key degree vectors collected into a sorted table of every joinable
// key, a cube table aligned with it (size 0 for light keys), and its own
// cell enumerator. The body is the production one before the rewrite,
// verbatim but for the Ref suffix on its helpers and the gridded count it
// also returns; clampDims is shared.

// MultiwayKeyedJoinRef is MultiwayKeyedJoin on the retained body; gridded
// is the number of keys it gave a cube, so a test can tell the cubes were
// used. It is exported for the external test package, which builds
// instances through gen.
func MultiwayKeyedJoinRef(key relation.Schema, dists []*mpc.Dist, ring relation.Semiring, seed uint64) (res *mpc.Dist, gridded int) {
	return multiwayKeyedJoinRef(key, dists, ring, seed)
}

func multiwayKeyedJoinRef(key relation.Schema, dists []*mpc.Dist, ring relation.Semiring, seed uint64) (*mpc.Dist, int) {
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
		return dists[0], 0
	}
	keyAttrs := []relation.Attr(key)

	// Per-relation degree tables, co-located by key (same salt).
	degs := make([]*mpc.Dist, m)
	for i, d := range dists {
		degs[i] = primitives.CountByKey(d, keyAttrs, seed^uint64(0x600+i)).
			ShuffleByAttrs(keyAttrs, seed^0x700)
	}
	stats := collectKeyStatsRef(degs)

	inSize := 0
	for _, d := range dists {
		inSize += d.Size()
	}
	l0 := chooseLoadRef(stats, inSize, c.P)
	cubes, gridded := buildCubeRef(stats, l0, c.P)
	c.ChargeDirectory(gridded)

	// The joinable keys as one flat, value-indexed part: row r is stats[r]'s
	// key, so a routed tuple finds its cube without building a key string.
	var keys mpc.Columns
	keys.Reserve(len(key), len(stats))
	for _, st := range stats {
		copy(keys.AppendRow(1), st.key)
	}
	keyIdx := mpc.IndexRows(&keys, identityPos(len(key)))
	defer keyIdx.Release()

	// Route every relation: light keys by hash, heavy keys into their cube.
	routed := make([]*mpc.Dist, m)
	for i, d := range dists {
		idx := i
		pos := d.Positions(keyAttrs)
		whole := identityPos(len(d.Schema))
		// Tuples of keys absent from any relation cannot join. The
		// directory exchange is already charged by the degree shuffles and
		// the filter is local knowledge per routed tuple in the real
		// algorithm (attached during the degree multi-search), so they are
		// dropped locally here.
		joinable := d.FilterLocal(func(it mpc.Item) bool { return keyIdx.First(it.T, pos) >= 0 })
		routed[i] = joinable.ReplicateAppend(func(it mpc.Item, dst []int) []int {
			cube := &cubes[keyIdx.First(it.T, pos)]
			if cube.size == 0 {
				return append(dst, int(mpc.HashTupleAt(it.T, pos, seed^0x800)%uint64(c.P)))
			}
			coord := int(mpc.HashTupleAt(it.T, whole, seed^uint64(0x900+idx)) % uint64(cube.dims[idx]))
			return cube.appendServers(dst, idx, coord, c.P)
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
	return res, gridded
}

// keyStatRef aggregates the per-relation degrees of one key value.
type keyStatRef struct {
	key  relation.Tuple
	degs []int64
}

// collectKeyStatsRef merges the degree tables — whose rows are the keys, and
// which are co-located by key — into per-key vectors, keeping only keys
// present in every relation, in key order.
func collectKeyStatsRef(degs []*mpc.Dist) []keyStatRef {
	m := len(degs)
	whole := identityPos(len(degs[0].Schema))
	var out []keyStatRef
	for s := range degs[0].Parts {
		idx := make([]mpc.RowIndex, m)
		for i := 1; i < m; i++ {
			idx[i] = mpc.IndexRows(&degs[i].Parts[s], whole)
		}
		first := &degs[0].Parts[s]
	keys:
		for j := 0; j < first.Len(); j++ {
			st := keyStatRef{key: first.Tuple(j), degs: make([]int64, m)}
			st.degs[0] = first.Annot(j)
			for i := 1; i < m; i++ {
				r := idx[i].First(st.key, whole)
				if r < 0 {
					continue keys
				}
				st.degs[i] = degs[i].Parts[s].Annot(r)
			}
			out = append(out, st)
		}
		for i := 1; i < m; i++ {
			idx[i].Release()
		}
	}
	sort.Slice(out, func(i, j int) bool { return slices.Compare(out[i].key, out[j].key) < 0 })
	return out
}

// chooseLoadRef binary-searches the smallest per-relation load target L ≥ IN/p
// whose heavy keys need at most 2p grid cells in total.
func chooseLoadRef(stats []keyStatRef, inSize, p int) int64 {
	lo := int64(inSize/p) + 1
	hi := int64(1)
	for _, st := range stats {
		for _, d := range st.degs {
			if d > hi {
				hi = d
			}
		}
	}
	if hi < lo {
		hi = lo
	}
	cells := func(l int64) int64 {
		var total int64
		for _, st := range stats {
			cell := int64(1)
			gridded := false
			for _, d := range st.degs {
				dim := (d + l - 1) / l
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

// cubeInfoRef is the server hypercube of one heavy key.
type cubeInfoRef struct {
	base    int
	dims    []int
	strides []int
	size    int
}

// appendServers appends the servers covering coordinate coord of dimension
// idx (the tuple is replicated across all other dimensions), in increasing
// cell order.
func (ci *cubeInfoRef) appendServers(dst []int, idx, coord, p int) []int {
	step := ci.strides[idx]
	for hi := 0; hi < ci.size; hi += step * ci.dims[idx] {
		for lo := 0; lo < step; lo++ {
			dst = append(dst, (ci.base+hi+coord*step+lo)%p)
		}
	}
	return dst
}

// buildCubeRef assigns hypercubes to the keys that need more than one cell:
// cubes[i] is stats[i]'s cube, left zero (size 0) for light keys, and
// gridded counts the cubes assigned.
func buildCubeRef(stats []keyStatRef, l0 int64, p int) (cubes []cubeInfoRef, gridded int) {
	cubes = make([]cubeInfoRef, len(stats))
	base := 0
	for k, st := range stats {
		dims := make([]int, len(st.degs))
		multi := false
		for i, d := range st.degs {
			dims[i] = int((d + l0 - 1) / l0)
			if dims[i] < 1 {
				dims[i] = 1
			}
			if dims[i] > 1 {
				multi = true
			}
		}
		if !multi {
			continue
		}
		size := clampDims(dims, p)
		strides := make([]int, len(dims))
		s := 1
		for i := len(dims) - 1; i >= 0; i-- {
			strides[i] = s
			s *= dims[i]
		}
		cubes[k] = cubeInfoRef{base: base % p, dims: dims, strides: strides, size: size}
		base += size
		gridded++
	}
	return cubes, gridded
}
