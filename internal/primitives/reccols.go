package primitives

import (
	"slices"

	"repro/internal/mpc"
	"repro/internal/relation"
)

// The columnar record pool, flat-key edition. Every skew-sensitive
// primitive (the multi-search under Lookup and the semi-join, DistinctByKey,
// MultiNumbering) collects its records into a pooled struct-of-arrays set
// (parallel key/tag/ref columns). Keys are fixed width per call — a
// projection onto a fixed position list — so the key column is one flat
// []relation.Value buffer: row i's key is keys[i*kw : (i+1)*kw], compared
// with a word-wise value loop. This drops the byte-string interning layer
// entirely: building a key is copying kw values, comparing two keys is at
// most kw integer compares, and the order is identical to the old
// encoded-string order because the encoding (8 big-endian bytes of
// uint64(v)^(1<<63) per value) was order-preserving by construction.
//
// A record does not copy its row: it names it. Its ref is part<<32 | row
// in the Dist its tag was staged from (src[tag]), and the row's tuple and
// annotation are read from there only when a scan writes them. Staging
// therefore copies only what the sort reads — the key words and the tag —
// plus one counter word, and every column is pointer-free.
//
// Pooling is strictly a memory-reuse layer: every buffer is fully
// initialized before it is read, so results, cluster charges and table
// bytes do not depend on what a pooled buffer held before — the parity
// tests run against pools seeded with garbage-filled buffers.

// recCols is the columnar record set: a flat fixed-width key buffer plus
// parallel tag and ref columns, sorted together by (key, tag) via an index
// permutation. kw is the key width in values; it is adopted from the first
// staged record and every later record must match.
type recCols struct {
	kw   int
	keys []relation.Value
	tags []uint8
	refs []uint64     // part<<32 | row of the record's row in src[tag]
	src  [2]*mpc.Dist // the Dist each tag was staged from
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

// appendDist stages every row of d under tag, keyed by its projection onto
// pos: the columns grow once to their final length, and each part fills
// its window with one strided key gather, one tag fill and a row counter.
func (rc *recCols) appendDist(d *mpc.Dist, pos []int, tag uint8) {
	rc.adoptKeyWidth(len(pos))
	rc.src[tag] = d
	kw, n, m := rc.kw, rc.len(), d.Size()
	rc.keys = slices.Grow(rc.keys, m*kw)[:(n+m)*kw]
	rc.tags = slices.Grow(rc.tags, m)[:n+m]
	rc.refs = slices.Grow(rc.refs, m)[:n+m]
	for s := range d.Parts {
		part := &d.Parts[s]
		rows := part.Len()
		part.Gather(rc.keys[n*kw:(n+rows)*kw], pos)
		tags, refs := rc.tags[n:n+rows], rc.refs[n:n+rows]
		for i := range tags {
			tags[i] = tag
		}
		base := uint64(s) << 32
		for i := range refs {
			refs[i] = base | uint64(i)
		}
		n += rows
	}
}

// row returns the part and row number record i names.
func (rc *recCols) row(i int) (*mpc.Columns, int) {
	ref := rc.refs[i]
	return &rc.src[rc.tags[i]].Parts[ref>>32], int(uint32(ref))
}

// item reads record i's row for callbacks that take items.
func (rc *recCols) item(i int) mpc.Item {
	part, r := rc.row(i)
	return part.Item(r)
}

// openers compacts a rank vector sorted by (key, tag), in place, to what a
// local combiner would have staged: every record of a tag other than 0,
// and of the tag-0 records only the first of each (part, key) group.
// Equal-key tag-0 records sort next to each other in staging order, part
// by part, so a tag-0 record opens its group exactly when the record
// before it is no tag-0 record of the same part and key. The compacted
// vector is the stable (key, tag) sort of those records alone, so the
// chunks cut from it are the combiner's.
//
//lint:alloc-ceiling
func (rc *recCols) openers(order []int32) []int32 {
	kept := order[:0]
	prev := int32(-1)
	for _, i := range order {
		if rc.tags[i] == 0 && prev >= 0 && rc.tags[prev] == 0 && rc.refs[prev]>>32 == rc.refs[i]>>32 && rc.keyEq(int(prev), int(i)) {
			continue
		}
		kept = append(kept, i)
		prev = i
	}
	return kept
}

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

var recColsPool mpc.Pool[recCols]

// getRecCols returns an empty record set with room for capacity rows.
func getRecCols(capacity int) *recCols {
	rc := recColsPool.Get()
	if cap(rc.tags) < capacity {
		// Too small for this call site: grow once, keep the grown set.
		*rc = recCols{
			keys: make([]relation.Value, 0, capacity),
			tags: make([]uint8, 0, capacity),
			refs: make([]uint64, 0, capacity),
		}
	}
	return rc
}

// putRecCols recycles rc. The columns are pointer-free and only truncated;
// the two source pointers are dropped, so the pool retains no dataset.
func putRecCols(rc *recCols) {
	rc.keys, rc.tags, rc.refs = rc.keys[:0], rc.tags[:0], rc.refs[:0]
	rc.src = [2]*mpc.Dist{}
	recColsPool.Put(rc)
}

// sortScratch is the sample sort's whole working set — the rank vector and
// its radix twin, one permute target per record column, and chopBounds'
// bounds and loads — pooled as a single pointer so a steady-state sort
// performs one pool round-trip and zero boxing allocations. The keys and
// refs permute targets are dead while the rank sort runs and serve it as
// its two key vectors (the multi-search, which permutes nothing, uses them
// only so). mpc.Resize grows the vectors in place; contents are
// UNSPECIFIED until written (consumers initialize before reading). Every
// vector is pointer-free, so a put clears nothing.
type sortScratch struct {
	ranks  []int32 // the rank vector, then its radix twin: one allocation
	keys   []relation.Value
	tags   []uint8
	refs   []uint64
	bounds []int // chopBounds' p+1 bounds, then its p loads
}

var sortScratchPool mpc.Pool[sortScratch]

func getSortScratch() *sortScratch { return sortScratchPool.Get() }

func putSortScratch(sc *sortScratch) { sortScratchPool.Put(sc) }
