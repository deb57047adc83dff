package primitives

import (
	"sync"

	"repro/internal/mpc"
	"repro/internal/relation"
)

// The columnar record pool, flat-key edition. Every skew-sensitive
// primitive (the multi-search under Lookup and the semi-join, DistinctByKey,
// MultiNumbering) collects its records into a pooled struct-of-arrays set
// (parallel key/tag/tuple/annot columns). Keys are fixed width per call — a
// projection onto a fixed position list — so the key column is one flat
// []relation.Value buffer: row i's key is keys[i*kw : (i+1)*kw], compared
// with a word-wise value loop. This drops the byte-string interning layer
// entirely: building a key is copying kw values, comparing two keys is at
// most kw integer compares, and the order is identical to the old
// encoded-string order because the encoding (8 big-endian bytes of
// uint64(v)^(1<<63) per value) was order-preserving by construction.
//
// Pooling is strictly a memory-reuse layer: every buffer is fully
// initialized before it is read, so results, cluster charges and table
// bytes do not depend on what a pooled buffer held before — the parity
// tests run against pools seeded with garbage-filled buffers.

// recCols is the columnar record set: a flat fixed-width key buffer plus
// parallel tag/tuple/annot columns, sorted together by (key, tag) via an
// index permutation. kw is the key width in values; it is adopted from the
// first appended record and every later record must match.
type recCols struct {
	kw     int
	keys   []relation.Value
	tags   []uint8
	tuples []relation.Tuple
	annots []int64
}

func (rc *recCols) len() int { return len(rc.tags) }

// adoptKeyWidth fixes the key width from the first record.
func (rc *recCols) adoptKeyWidth(kw int) {
	if len(rc.tags) == 0 {
		rc.kw = kw
		rc.keys = rc.keys[:0]
		return
	}
	if kw != rc.kw {
		panic("primitives: mixed key widths in one record set")
	}
}

// appendKeyed adds one record whose key is t's projection onto pos.
func (rc *recCols) appendKeyed(t relation.Tuple, pos []int, tag uint8, a int64) {
	rc.adoptKeyWidth(len(pos))
	for _, p := range pos {
		rc.keys = append(rc.keys, t[p])
	}
	rc.tags = append(rc.tags, tag)
	rc.tuples = append(rc.tuples, t)
	rc.annots = append(rc.annots, a)
}

// appendDist adds every row of d, keyed by its projection onto pos.
func (rc *recCols) appendDist(d *mpc.Dist, pos []int, tag uint8) {
	for s := range d.Parts {
		part := &d.Parts[s]
		for i := 0; i < part.Len(); i++ {
			rc.appendKeyed(part.Tuple(i), pos, tag, part.Annot(i))
		}
	}
}

// appendOpeners is the local combiner, uncharged: of every part of d it
// adds only the rows that open a key group there — at most one record per
// (server, key), in first-occurrence order.
func (rc *recCols) appendOpeners(d *mpc.Dist, pos []int) {
	for s := range d.Parts {
		part := &d.Parts[s]
		if part.Len() == 0 {
			continue
		}
		ix := mpc.IndexRows(part, pos)
		for i := 0; i < part.Len(); i++ {
			if ix.Opens(i) {
				rc.appendKeyed(part.Tuple(i), pos, 0, part.Annot(i))
			}
		}
		ix.Release()
	}
}

// item assembles row i for callbacks that take items.
func (rc *recCols) item(i int) mpc.Item { return mpc.Item{T: rc.tuples[i], A: rc.annots[i]} }

// key returns row i's key window in the flat buffer.
func (rc *recCols) key(i int) []relation.Value {
	kw := rc.kw
	return rc.keys[i*kw : i*kw+kw]
}

// keyLess compares the keys of rows i and j word-wise — identical order to
// the old encoded-string comparison.
func (rc *recCols) keyLess(i, j int) bool {
	kw := rc.kw
	a, b := i*kw, j*kw
	for k := 0; k < kw; k++ {
		if rc.keys[a+k] != rc.keys[b+k] {
			return rc.keys[a+k] < rc.keys[b+k]
		}
	}
	return false
}

// keyEq reports whether rows i and j share a key.
func (rc *recCols) keyEq(i, j int) bool {
	kw := rc.kw
	a, b := i*kw, j*kw
	for k := 0; k < kw; k++ {
		if rc.keys[a+k] != rc.keys[b+k] {
			return false
		}
	}
	return true
}

// less is THE record order of every skew-sensitive primitive — by key,
// ties broken by tag. The tests' serial reference (recLess) and the
// rank sort must agree on it exactly.
func (rc *recCols) less(i, j int32) bool {
	kw := rc.kw
	a, b := int(i)*kw, int(j)*kw
	for k := 0; k < kw; k++ {
		if rc.keys[a+k] != rc.keys[b+k] {
			return rc.keys[a+k] < rc.keys[b+k]
		}
	}
	return rc.tags[i] < rc.tags[j]
}

// reset truncates the columns, clearing the pointer-bearing tuple column
// so pooled capacity does not retain tuples (the key column carries plain
// values — stale contents are unreachable and pointer-free).
func (rc *recCols) reset() {
	clear(rc.tuples[:cap(rc.tuples)])
	rc.keys = rc.keys[:0]
	rc.tags = rc.tags[:0]
	rc.tuples = rc.tuples[:0]
	rc.annots = rc.annots[:0]
}

var recColsPool sync.Pool

// getRecCols returns an empty record set with room for capacity rows.
func getRecCols(capacity int) *recCols {
	if v := recColsPool.Get(); v != nil {
		rc := v.(*recCols)
		if cap(rc.tags) >= capacity {
			return rc
		}
		// Too small for this call site: grow once, keep the grown set.
	}
	return &recCols{
		keys:   make([]relation.Value, 0, capacity),
		tags:   make([]uint8, 0, capacity),
		tuples: make([]relation.Tuple, 0, capacity),
		annots: make([]int64, 0, capacity),
	}
}

// putRecCols recycles rc. Callers must have copied out every tuple header
// and annotation they keep (the output Dist does).
func putRecCols(rc *recCols) {
	rc.reset()
	recColsPool.Put(rc)
}

// sortScratch is the sample sort's whole working set — the rank vector and
// its radix twin, and one permute target per record column — pooled as a
// single pointer so a steady-state sort performs one pool round-trip and
// zero boxing allocations. The keys and annots permute targets are dead
// while the rank sort runs and serve it as its two key vectors (the
// multi-search, which permutes nothing, uses them only so). ensureSlice
// grows the vectors in place; contents are UNSPECIFIED until written
// (consumers initialize before reading).
// Pointer-bearing columns are cleared on put, like the record sets, so the
// pool never retains a past dataset.
type sortScratch struct {
	ranks  []int32 // the rank vector, then its radix twin: one allocation
	keys   []relation.Value
	tags   []uint8
	tuples []relation.Tuple
	annots []int64
}

// ensureSlice grows s to length n, reusing its capacity when possible.
func ensureSlice[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

var sortScratchPool sync.Pool

func getSortScratch() *sortScratch {
	if v := sortScratchPool.Get(); v != nil {
		return v.(*sortScratch)
	}
	return &sortScratch{}
}

func putSortScratch(sc *sortScratch) {
	// The permute swap leaves the pre-sort tuple column here; clear it so
	// the pool never retains a past dataset's tuples (the key column is
	// pointer-free and needs no clearing).
	clear(sc.tuples[:cap(sc.tuples)])
	sortScratchPool.Put(sc)
}
