package core

import (
	"slices"
	"sort"

	"repro/internal/mpc"
	"repro/internal/relation"
)

// The per-key HyperCube [3] every grid join places its tuples through. A
// keyed join (BinaryJoin, MultiwayKeyedJoin) counts each relation's degree
// per key, merges the counts into one degree table (degreeTable), and gives
// each heavy key a cube of servers with one dimension per relation, sized
// by that relation's degree (newDirectory); light keys are hashed. Triangle
// and Line3WorstCase route through one fixed-share cube over their join
// attributes. A tuple fixes the coordinates of the dimensions it is hashed
// on and is replicated along the others (appendServers).

// synthDeg is the synthetic attribute of relation i's degree column in a
// degree table. Negative ids cannot collide with query attributes.
func synthDeg(i int) relation.Attr { return relation.Attr(-101 - i) }

// A cube is a grid of servers: cells numbered in row-major order over dims,
// cell k on server (base + k) mod p.
type cube struct {
	base, size, p int
	dims, strides []int
}

// coord fixes dimension dim of a cube at coordinate x.
type coord struct{ dim, x int }

// newCube returns the cube over dims — clamped in place to at most p cells,
// so that a pair of tuples meets on one server only — whose first cell is
// on server base mod p.
func newCube(dims []int, base, p int) cube {
	size := clampDims(dims, p)
	strides := make([]int, len(dims))
	for i, st := len(dims)-1, 1; i >= 0; i-- {
		strides[i] = st
		st *= dims[i]
	}
	return cube{base: base % p, size: size, p: p, dims: dims, strides: strides}
}

// appendServers appends to dst the server of every cell whose coordinates
// agree with fixed, in increasing cell order, and allocates nothing: a
// tuple is replicated along every dimension fixed leaves free. The
// innermost free dimension is written as strided runs, one per combination
// of the outer free coordinates; j counts those combinations with the
// dimension nearest the innermost varying fastest, so cells come out in
// increasing order.
func (cb *cube) appendServers(dst []int, fixed ...coord) []int {
	off := cb.base
	for _, f := range fixed {
		off += f.x * cb.strides[f.dim]
	}
	last, outer := -1, 1 // the innermost free dimension; runs to emit
	for i := len(cb.dims) - 1; i >= 0; i-- {
		switch {
		case isFixed(fixed, i):
		case last < 0:
			last = i
		default:
			outer *= cb.dims[i]
		}
	}
	n, step := 1, 0
	if last >= 0 {
		n, step = cb.dims[last], cb.strides[last]
	}
	for j := 0; j < outer; j++ {
		cell := off
		for i, rest := last-1, j; rest > 0; i-- {
			if !isFixed(fixed, i) {
				cell += rest % cb.dims[i] * cb.strides[i]
				rest /= cb.dims[i]
			}
		}
		for x := 0; x < n; x++ {
			s := cell + x*step
			if s >= cb.p { // base < p and every cell < size ≤ p
				s -= cb.p
			}
			dst = append(dst, s)
		}
	}
	return dst
}

func isFixed(fixed []coord, dim int) bool {
	for _, f := range fixed {
		if f.dim == dim {
			return true
		}
	}
	return false
}

// clampDims shrinks the largest dimensions until the cube has at most p
// cells: a single key's grid must never wrap around the cluster, or pairs
// would meet on more than one server and be reported twice.
func clampDims(dims []int, p int) int {
	size := 1
	for _, d := range dims {
		size *= d
	}
	for size > p {
		maxI := 0
		for i, d := range dims {
			if d > dims[maxI] {
				maxI = i
			}
		}
		size = size / dims[maxI]
		dims[maxI]--
		if dims[maxI] < 1 {
			dims[maxI] = 1
		}
		size *= dims[maxI]
	}
	return size
}

// degreeTable merges per-relation degree tables — CountByKey outputs over
// key, co-located by key — into one table over key followed by one degree
// column per relation (synthDeg), keeping the keys present in every
// relation: server by server, in relation 0's row order.
func degreeTable(key relation.Schema, degs ...*mpc.Dist) *mpc.Dist {
	m, kw := len(degs), len(key)
	schema := append(relation.Schema{}, key...)
	for i := range degs {
		schema = append(schema, synthDeg(i))
	}
	out := mpc.NewDist(degs[0].C, schema)
	pos := make([][]int, m)
	for i, d := range degs {
		pos[i] = d.Positions(key)
	}
	idx, rows := make([]mpc.RowIndex, m), make([]int, m)
	for s := range out.Parts {
		if slices.ContainsFunc(degs, func(d *mpc.Dist) bool { return d.Parts[s].Len() == 0 }) {
			continue
		}
		for i := 1; i < m; i++ {
			idx[i] = mpc.IndexRows(&degs[i].Parts[s], pos[i])
		}
		first := &degs[0].Parts[s]
		out.Parts[s].Reserve(len(schema), first.Len())
	keys:
		for j := 0; j < first.Len(); j++ {
			t := first.Tuple(j)
			for i := 1; i < m; i++ {
				if rows[i] = idx[i].First(t, pos[0]); rows[i] < 0 {
					continue keys
				}
			}
			row := out.Parts[s].AppendRow(1)
			for k, p := range pos[0] {
				row[k] = t[p]
			}
			row[kw] = relation.Value(first.Annot(j))
			for i := 1; i < m; i++ {
				row[kw+i] = relation.Value(degs[i].Parts[s].Annot(rows[i]))
			}
		}
		for i := 1; i < m; i++ {
			idx[i].Release()
		}
	}
	return out
}

// directory is the broadcast heavy-key directory of a keyed grid join: row
// r of rows is one heavy key followed by its degrees, found by key value
// through idx, and cubes[r] is that key's cube.
type directory struct {
	rows  mpc.Columns
	idx   mpc.RowIndex
	cubes []cube
}

// newDirectory gives every row of the degree table jd (kw key columns, then
// one degree per relation) whose degrees heavy admits a cube of ⌈d_i/l⌉
// cells along dimension i, clamped to p. The cubes are laid out one after
// another in key order, which makes the directory deterministic; Σ cube
// sizes = O(p) by the callers' degree thresholds.
func newDirectory(jd *mpc.Dist, kw int, l int64, heavy func(degs relation.Tuple) bool) *directory {
	var keys []relation.Tuple
	for s := range jd.Parts {
		part := &jd.Parts[s]
		for i := 0; i < part.Len(); i++ {
			if t := part.Tuple(i); heavy(t[kw:]) {
				keys = append(keys, t)
			}
		}
	}
	sort.Slice(keys, func(i, j int) bool { return slices.Compare(keys[i][:kw], keys[j][:kw]) < 0 })
	dir := &directory{cubes: make([]cube, len(keys))}
	dir.rows.Reserve(len(jd.Schema), len(keys))
	base := 0
	for r, t := range keys {
		copy(dir.rows.AppendRow(1), t)
		dims := make([]int, len(t)-kw)
		for i, d := range t[kw:] {
			dims[i] = max(1, int((int64(d)+l-1)/l))
		}
		dir.cubes[r] = newCube(dims, base, jd.C.P)
		base += dir.cubes[r].size
	}
	dir.idx = mpc.IndexRows(&dir.rows, identityPos(kw))
	return dir
}
