package core

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/relation"
)

// NaiveCount returns |Q(R)|, the number of rows Naive returns, without
// building any of them. It walks in.Rels in Naive's order, but keeps the
// partial join only as its projection onto the live attributes (those a
// later relation reads), each projection with the number of partial rows
// behind it. Each relation is indexed once by the attributes it shares
// with the live set; every partial row (v, c) then adds c to the
// projection of v ∪ t for each matching row t. Projections are merged
// through a hash table only on a step that drops an attribute: on any
// other step each pair is a row of its own, and is appended. Once nothing
// stays live the count is one running total, so the cost is bounded by
// the largest projection kept, not by |Q(R)| — a 2⁴⁰-row product counts
// in microseconds. A count past int64 panics rather than wraps.
//
// It is the oracle every algorithm's OUT is checked against, so it stays
// independent of the data plane it checks: it reads relation tuples with
// the standard library alone — no mpc buffer or row index, no code shared
// with the count algorithm (Cor. 4) — and tests pin it to Naive.
func NaiveCount(in *Instance) int64 {
	// uses[a] counts the relations not yet joined that read a.
	uses := map[relation.Attr]int{}
	for _, r := range in.Rels {
		for _, a := range r.Schema {
			uses[a]++
		}
	}
	cur := countedRows{counts: []int64{1}}
	for _, r := range in.Rels {
		for _, a := range r.Schema {
			uses[a]--
		}
		var live relation.Schema
		for _, a := range cur.attrs.Union(r.Schema) {
			if uses[a] > 0 {
				live = append(live, a)
			}
		}
		cur = cur.join(r, live)
	}
	var n int64
	for _, c := range cur.counts {
		n = countAdd(n, c)
	}
	return n
}

// countedRows is a partial join projected onto attrs: row k is
// vals[k*len(attrs):(k+1)*len(attrs)], standing for counts[k] rows of the
// partial join.
type countedRows struct {
	attrs  relation.Schema
	vals   []relation.Value
	counts []int64
}

// join returns the projection of cur ⋈ r onto live, which lists the kept
// attributes of cur in cur's order, then the kept attributes of r.
func (cur countedRows) join(r *relation.Relation, live relation.Schema) countedRows {
	shared := r.Schema.Intersect(cur.attrs)
	keyCur, keyR := cur.attrs.Positions(shared), r.Schema.Positions(shared)
	fromCur := cur.attrs.Positions(live.Intersect(cur.attrs))
	fromR := r.Schema.Positions(live.Minus(cur.attrs))
	idx := indexByKey(r, keyR)

	next := countedRows{attrs: live}
	// A step that drops an attribute merges equal projections; on any
	// other, each pair is a row of its own.
	var merged *rowSet
	if len(live) > 0 && len(live) < len(cur.attrs)+len(r.Schema)-len(shared) {
		merged = newRowSet(len(live), len(cur.counts))
	}
	var total int64
	row := make(relation.Tuple, len(live))
	emit := func(v, t relation.Tuple, c int64) {
		if len(live) == 0 {
			total = countAdd(total, c)
			return
		}
		for i, p := range fromCur {
			row[i] = v[p]
		}
		for i, p := range fromR {
			row[len(fromCur)+i] = t[p]
		}
		if merged == nil {
			next.vals = append(next.vals, row...)
			next.counts = append(next.counts, c)
		} else if k, added := merged.add(row); added {
			next.counts = append(next.counts, c)
		} else {
			next.counts[k] = countAdd(next.counts[k], c)
		}
	}
	w := len(cur.attrs)
	key := make(relation.Tuple, len(shared))
	for k, c := range cur.counts {
		v := relation.Tuple(cur.vals[k*w : k*w+w])
		g, ok := idx.groups.find(gather(key, v, keyCur))
		if !ok {
			continue
		}
		if len(fromR) == 0 {
			emit(v, nil, countMul(c, int64(idx.start[g+1]-idx.start[g])))
			continue
		}
		for _, i := range idx.row[idx.start[g]:idx.start[g+1]] {
			emit(v, r.Tuples[i], c)
		}
	}
	switch {
	case len(live) == 0 && total > 0:
		next.counts = []int64{total}
	case merged != nil:
		next.vals = merged.vals
	}
	return next
}

// countIndex groups a relation's rows by a key (CSR): group g's rows are
// row[start[g]:start[g+1]], in row order.
type countIndex struct {
	groups *rowSet
	start  []int
	row    []int
}

// indexByKey indexes r by its columns key.
func indexByKey(r *relation.Relation, key []int) countIndex {
	idx := countIndex{groups: newRowSet(len(key), r.Size())}
	rowGroup := make([]int, r.Size())
	buf := make(relation.Tuple, len(key))
	for i, t := range r.Tuples {
		rowGroup[i], _ = idx.groups.add(gather(buf, t, key))
	}
	idx.start = make([]int, idx.groups.n+1)
	for _, g := range rowGroup {
		idx.start[g+1]++
	}
	for g := 0; g < idx.groups.n; g++ {
		idx.start[g+1] += idx.start[g]
	}
	idx.row = make([]int, len(rowGroup))
	fill := append([]int(nil), idx.start...)
	for i, g := range rowGroup {
		idx.row[fill[g]] = i
		fill[g]++
	}
	return idx
}

// gather writes the values of t at pos into dst and returns it.
func gather(dst, t relation.Tuple, pos []int) relation.Tuple {
	for i, p := range pos {
		dst[i] = t[p]
	}
	return dst
}

// rowSet numbers distinct rows of w values in the order they are first
// added: row k is vals[k*w:(k+1)*w]. It is an open-addressing hash table
// over the flat rows themselves, so adding or finding a row allocates
// nothing of its own.
type rowSet struct {
	w, n  int
	vals  []relation.Value
	slots []int // k+1 for row k; 0 is empty
}

func newRowSet(w, hint int) *rowSet {
	size := 8
	for size < 2*hint {
		size *= 2
	}
	return &rowSet{w: w, slots: make([]int, size)}
}

// find returns the number of row, if it was added.
func (s *rowSet) find(row relation.Tuple) (int, bool) {
	mask := len(s.slots) - 1
	for i := hashRow(row) & mask; s.slots[i] != 0; i = (i + 1) & mask {
		if k := s.slots[i] - 1; slices.Equal(s.vals[k*s.w:k*s.w+s.w], row) {
			return k, true
		}
	}
	return 0, false
}

// add returns the number of row, and whether this call added it.
func (s *rowSet) add(row relation.Tuple) (int, bool) {
	if k, ok := s.find(row); ok {
		return k, false
	}
	if 2*(s.n+1) > len(s.slots) {
		s.slots = make([]int, 2*len(s.slots))
		for k := 0; k < s.n; k++ {
			s.place(k)
		}
	}
	s.vals = append(s.vals, row...)
	s.place(s.n)
	s.n++
	return s.n - 1, true
}

// place puts row k, already in vals, in its first free slot.
func (s *rowSet) place(k int) {
	mask := len(s.slots) - 1
	i := hashRow(s.vals[k*s.w:k*s.w+s.w]) & mask
	for s.slots[i] != 0 {
		i = (i + 1) & mask
	}
	s.slots[i] = k + 1
}

// hashRow mixes a row's values into a slot index.
func hashRow(row relation.Tuple) int {
	h := uint64(len(row))
	for _, v := range row {
		h = (h ^ uint64(v)) * 0x9e3779b97f4a7c15
		h ^= h >> 29
	}
	return int(h ^ h>>32)
}

// countAdd and countMul are the count's checked arithmetic.
func countAdd(a, b int64) int64 {
	if a > math.MaxInt64-b {
		panic(fmt.Sprintf("core: NaiveCount overflows int64 adding %d to %d", b, a))
	}
	return a + b
}

func countMul(a, b int64) int64 {
	if a != 0 && b > math.MaxInt64/a {
		panic(fmt.Sprintf("core: NaiveCount overflows int64 multiplying %d by %d", a, b))
	}
	return a * b
}
