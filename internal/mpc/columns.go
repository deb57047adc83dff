package mpc

import (
	"slices"
	"sync"

	"repro/internal/relation"
)

// Columns is the flat fixed-width item store of the data plane: one part
// holds a single contiguous value buffer plus the tuple width, so row i is
// values[i*width : (i+1)*width]. There is no per-row slice header and no
// per-row heap object — routing moves value ranges with contiguous copies,
// hashing reads values straight out of the buffer, and the buffer itself is
// the densest possible representation of a fixed-arity relation (the
// layout-over-topology lever from the ROADMAP's flat-encoding item).
//
// Width is a property of the part's schema. A zero-value Columns has no
// width yet; the first Append (or AppendColumns) adopts the width of the
// appended row, and every later row must match. Rows are counted
// explicitly (rows, not len(values)/width) so width-0 tuples — scalar
// aggregates — still count rows.
//
// The annotation column is lazy: annots == nil means every annotation is
// the value 1. That is the One of the count and Boolean rings, not of every
// ring: under max-plus, whose One is 0, an unannotated input is converted
// at the boundary (core.LoadInstance fills One), so the data plane never
// reads a lazy column as a ring's One. Plain joins — the common case —
// therefore carry no annotation storage through any number of exchanges.
// The invariant is maintained by every mutator: appending an annotation
// other than 1 materializes the column, and bulk copies from a
// materialized source materialize the destination before any concurrent
// scatter begins (see exchangePlan.alloc). Because neither the
// representation of "all ones" nor the buffer capacity is unique, compare
// Columns with Equal, which compares values, never representations.
type Columns struct {
	width  int
	rows   int
	values []relation.Value
	annots []int64 // nil ⇒ every annotation is 1
}

// Len returns the number of rows.
func (c *Columns) Len() int { return c.rows }

// Width returns the tuple width (0 until the first row adopts one).
func (c *Columns) Width() int { return c.width }

// Tuple returns row i's tuple as a window into the flat buffer (shared,
// not copied; capacity-clamped so appends cannot spill into row i+1).
func (c *Columns) Tuple(i int) relation.Tuple {
	w := c.width
	return relation.Tuple(c.values[i*w : i*w+w : i*w+w])
}

// Annot returns row i's annotation.
func (c *Columns) Annot(i int) int64 {
	if c.annots == nil {
		return 1
	}
	return c.annots[i]
}

// SumAnnots is the ring.Add fold of the annotations from ring.Zero, in row
// order. A lazy column holds rows copies of 1, folded by double-and-add in
// O(log rows) additions: Add is associative and commutative, so the value
// is the row-order fold's.
func (c *Columns) SumAnnots(ring relation.Semiring) int64 {
	sum := ring.Zero
	if c.annots == nil {
		for k, pow := c.rows, int64(1); k > 0; k >>= 1 {
			if k&1 != 0 {
				sum = ring.Add(sum, pow)
			}
			if k > 1 {
				pow = ring.Add(pow, pow)
			}
		}
		return sum
	}
	for _, a := range c.annots[:c.rows] {
		sum = ring.Add(sum, a)
	}
	return sum
}

// Item assembles row i as an Item (for callbacks that take items).
func (c *Columns) Item(i int) Item { return Item{T: c.Tuple(i), A: c.Annot(i)} }

// materializeAnnots backfills the annotation column with 1s so that a
// non-identity annotation can be stored. The column gets room for as many
// rows as the value buffer holds, so a Reserve made while the column was
// still lazy covers it too.
func (c *Columns) materializeAnnots() {
	rowCap := c.rows
	if c.width > 0 {
		rowCap = cap(c.values) / c.width
	}
	c.annots = make([]int64, c.rows, max(rowCap, 8))
	for i := range c.annots {
		c.annots[i] = 1
	}
}

// adoptWidth fixes the part's width from its first row. While the part is
// empty any width may be adopted (a zero-value Columns carries no width);
// once rows exist every appended row must match.
func (c *Columns) adoptWidth(w int) {
	if c.rows == 0 {
		c.width = w
		c.values = c.values[:0]
		return
	}
	if w != c.width {
		panic("mpc: Columns row width mismatch")
	}
}

// Append adds one row, copying t's values into the flat buffer.
func (c *Columns) Append(t relation.Tuple, a int64) {
	c.adoptWidth(len(t))
	if a != 1 && c.annots == nil {
		c.materializeAnnots()
	}
	c.values = append(c.values, t...)
	c.rows++
	if c.annots != nil {
		c.annots = append(c.annots, a)
	}
}

// AppendItem adds one row from an Item.
func (c *Columns) AppendItem(it Item) { c.Append(it.T, it.A) }

// Reserve makes room for n more rows of the given width with one exact
// allocation per column (no doubling): producers that can count their
// output first — the local join kernel, Concat, the semi-join — reserve
// once and then fill the rows (in place, with AppendRow). An empty part
// adopts the width; a non-empty one must already have it, and when it has
// to grow it at least doubles, like Append: a part filled by many small
// reservations (one local join per light group) is copied O(log) times,
// not once per reservation.
func (c *Columns) Reserve(width, n int) {
	c.adoptWidth(width)
	rows := c.rows + n
	if c.rows > 0 {
		rows = max(rows, 2*c.rows)
	}
	if need := rows * width; (c.rows+n)*width > cap(c.values) {
		c.values = append(make([]relation.Value, 0, need), c.values...)
	}
	if c.annots != nil && c.rows+n > cap(c.annots) {
		c.annots = append(make([]int64, 0, rows), c.annots...)
	}
}

// AppendRow adds one row and returns its window in the flat buffer for the
// caller to fill: the row is written once, where it will live, with no
// tuple object in between. The part must have its width (Reserve, or an
// earlier row); without reserved room the buffer grows like Append's.
//
//lint:alloc-ceiling
func (c *Columns) AppendRow(a int64) relation.Tuple {
	if a != 1 && c.annots == nil {
		c.materializeAnnots()
	}
	lo := len(c.values)
	c.values = slices.Grow(c.values, c.width)[:lo+c.width]
	c.rows++
	if c.annots != nil {
		c.annots = append(c.annots, a)
	}
	return relation.Tuple(c.values[lo : lo+c.width : lo+c.width])
}

// Extend adds n rows of the given width, annotated 1, and returns their
// values — n·width of them, row after row — for the caller to write: the
// window is where the rows live, and no row passes through a tuple or an
// AppendRow call. Room is made as by Reserve; a lazy annotation column
// stays lazy, a materialized one gets n 1s. The window's contents are
// unspecified until the caller writes them.
//
//lint:alloc-ceiling
func (c *Columns) Extend(width, n int) []relation.Value {
	c.Reserve(width, n)
	lo, hi := len(c.values), len(c.values)+n*width
	c.values = c.values[:hi]
	c.rows += n
	if c.annots != nil {
		for range n {
			c.annots = append(c.annots, 1)
		}
	}
	return c.values[lo:hi:hi]
}

// AppendProjected bulk-appends every row of src projected onto the columns
// pos (nil keeps every column): one exact reservation, then one gather per
// row, the annotation column moved as a block and kept lazy when src's is.
//
//lint:alloc-ceiling
func (c *Columns) AppendProjected(src *Columns, pos []int) {
	if src.rows == 0 {
		return
	}
	if pos == nil {
		c.Reserve(src.width, src.rows)
		c.AppendColumns(src)
		return
	}
	w := len(pos)
	c.Reserve(w, src.rows)
	if src.annots != nil && c.annots == nil {
		c.materializeAnnots()
	}
	lo := len(c.values)
	c.values = c.values[:lo+src.rows*w]
	dst := c.values[lo:]
	for i, sw := 0, src.width; i < src.rows; i++ {
		row := src.values[i*sw : i*sw+sw]
		for j, p := range pos {
			dst[i*w+j] = row[p]
		}
	}
	c.rows += src.rows
	c.appendAnnots(src)
}

// Gather writes every row's values at the columns pos into dst, row after
// row: rows·len(pos) values, one strided read of the flat buffer, with no
// tuple window built per row. The multi-search stages its record keys
// with it.
//
//lint:alloc-ceiling
func (c *Columns) Gather(dst []relation.Value, pos []int) {
	w, kw := c.width, len(pos)
	dst = dst[:c.rows*kw]
	switch kw {
	case 0:
	case 1:
		p := pos[0]
		for i := range dst {
			dst[i] = c.values[i*w+p]
		}
	default:
		for i := 0; i < c.rows; i++ {
			row := c.values[i*w : i*w+w]
			for j, p := range pos {
				dst[i*kw+j] = row[p]
			}
		}
	}
}

// appendAnnots extends a materialized annotation column with src's
// annotations (1s when src's column is lazy); a lazy column stays lazy.
func (c *Columns) appendAnnots(src *Columns) {
	if c.annots == nil {
		return
	}
	if src.annots != nil {
		c.annots = append(c.annots, src.annots[:src.rows]...)
		return
	}
	for i := 0; i < src.rows; i++ {
		c.annots = append(c.annots, 1)
	}
}

// AppendColumns bulk-appends every row of src, one copy per column.
func (c *Columns) AppendColumns(src *Columns) {
	if src.rows == 0 {
		return
	}
	c.adoptWidth(src.width)
	if src.annots != nil && c.annots == nil {
		c.materializeAnnots()
	}
	c.values = append(c.values, src.values[:src.rows*src.width]...)
	c.rows += src.rows
	c.appendAnnots(src)
}

// resize sets the width and row count, allocating exactly once per column;
// the annotation column is allocated only when asked for. Used by the
// exchange to pre-size destination parts before the parallel scatter.
func (c *Columns) resize(width, n int, withAnnots bool) {
	c.width = width
	c.rows = n
	c.values = make([]relation.Value, n*width)
	if withAnnots {
		c.annots = make([]int64, n)
	}
}

// copyAt block-copies src rows [lo, hi) into c starting at row off, one
// contiguous copy per column. c must be pre-sized (resize) with src's
// width; when c carries annotations and src does not, the window is filled
// with 1s.
func (c *Columns) copyAt(off int, src *Columns, lo, hi int) {
	w := c.width
	copy(c.values[off*w:], src.values[lo*w:hi*w])
	if c.annots == nil {
		return
	}
	if src.annots != nil {
		copy(c.annots[off:], src.annots[lo:hi])
		return
	}
	for i := off; i < off+(hi-lo); i++ {
		c.annots[i] = 1
	}
}

// setRow writes one pre-sized row. The caller must have materialized the
// annotation column whenever a non-identity annotation can occur (the
// exchange decides this once, before the scatter fans out).
func (c *Columns) setRow(i int, t relation.Tuple, a int64) {
	w := c.width
	copy(c.values[i*w:i*w+w], t)
	if c.annots != nil {
		c.annots[i] = a
	} else if a != 1 {
		panic("mpc: setRow with annotation on an identity column")
	}
}

// Equal reports whether the two column sets hold the same rows — tuple
// values and annotation values — regardless of buffer capacity and of
// whether either annotation column is materialized. Two empty parts are
// equal whatever widths they have adopted.
func (c *Columns) Equal(o *Columns) bool {
	if c.rows != o.rows {
		return false
	}
	if c.rows == 0 {
		return true
	}
	if c.width != o.width {
		return false
	}
	n := c.rows * c.width
	for i := 0; i < n; i++ {
		if c.values[i] != o.values[i] {
			return false
		}
	}
	for i := 0; i < c.rows; i++ {
		if c.Annot(i) != o.Annot(i) {
			return false
		}
	}
	return true
}

// Annotated reports whether the annotation column is materialized; false
// means every annotation is 1.
func (c *Columns) Annotated() bool { return c.annots != nil }

// view returns a second header over c's buffers, capacity-clamped to c's
// rows. Parts are written only while they are built, so the two may be
// read side by side for good, and neither can show the other a new row: an
// append through the view reallocates, an append to c lands past the
// view's capacity.
func (c *Columns) view() Columns {
	n := c.rows * c.width
	v := Columns{width: c.width, rows: c.rows, values: c.values[:n:n]}
	if c.annots != nil {
		v.annots = c.annots[:c.rows:c.rows]
	}
	return v
}

// Pool is the data plane's one recycling idiom: a typed free list that
// hands out *T — a fresh new(T) when it is empty — and takes *T back. The
// list is last in, first out, so a Get returns the value put most recently.
// It keeps every value put: it never holds more than the most values that
// were out of it at once, and those were all live together then. Unlike a
// sync.Pool, a collection never empties it, so each pooled value is
// allocated once per process, not once per collection. A slice grows in
// place behind its pointer: the owner resizes it (see Resize) and the pool
// keeps whatever capacity it reached.
// Contents are unspecified on Get; every owner writes before it reads.
// Pooling is memory reuse only: rows, loads, rounds and charges never
// depend on what a pooled value held before.
type Pool[T any] struct {
	mu   sync.Mutex
	free []*T
}

// Get returns the value put most recently, or new(T) when the pool has none.
func (p *Pool[T]) Get() *T {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(p.free)
	if n == 0 {
		return new(T)
	}
	v := p.free[n-1]
	p.free[n-1] = nil
	p.free = p.free[:n-1]
	return v
}

// Put returns v to the pool; the caller must not use it after.
func (p *Pool[T]) Put(v *T) {
	p.mu.Lock()
	p.free = append(p.free, v)
	p.mu.Unlock()
}

// Resize returns s with length n, reusing its capacity when it suffices
// and allocating exactly n otherwise. The contents are unspecified.
func Resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
