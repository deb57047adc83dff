package mpc

import (
	"reflect"
	"testing"

	"repro/internal/relation"
	"repro/internal/runtime"
)

// Tests for the output path: the in-place row writer, the columnar
// projection, the value-keyed row index, the bulk emit capability and the
// append-style router.

// randomColumns builds n rows of the given width with values in [0, dom);
// annotated draws non-identity annotations (materializing the column).
func randomColumns(rng *Rng, n, width, dom int, annotated bool) Columns {
	var c Columns
	row := make(relation.Tuple, width)
	for i := 0; i < n; i++ {
		for j := range row {
			row[j] = relation.Value(rng.Intn(dom))
		}
		a := int64(1)
		if annotated {
			a = int64(2 + rng.Intn(5))
		}
		c.Append(row, a)
	}
	return c
}

// TestReserveAppendRowMatchesAppend: rows written in place after one exact
// reservation equal rows appended one tuple at a time, the reservation is
// exact for both columns, and the lazy annotation column stays lazy until a
// non-identity annotation arrives.
func TestReserveAppendRowMatchesAppend(t *testing.T) {
	rng := NewRng(3)
	for _, annotated := range []bool{false, true} {
		src := randomColumns(rng, 100, 3, 50, annotated)
		var got Columns
		got.Reserve(3, src.Len())
		values := &got.values[:1][0]
		for i := 0; i < src.Len(); i++ {
			copy(got.AppendRow(src.Annot(i)), src.Tuple(i))
		}
		if !got.Equal(&src) {
			t.Fatalf("annotated=%v: in-place rows differ from appended rows", annotated)
		}
		if &got.values[0] != values || cap(got.values) != 300 {
			t.Fatalf("annotated=%v: value buffer reallocated or over-reserved (cap %d)", annotated, cap(got.values))
		}
		if got.Annotated() != annotated {
			t.Fatalf("annotated=%v: annotation column materialized = %v", annotated, got.Annotated())
		}
		if annotated && cap(got.annots) != 100 {
			t.Fatalf("annotation column not covered by the reservation: cap %d", cap(got.annots))
		}
	}

	// Without a reservation AppendRow grows like Append; width-0 rows count.
	var grow, scalar Columns
	grow.Reserve(2, 0)
	for i := 0; i < 50; i++ {
		w := grow.AppendRow(int64(i))
		w[0], w[1] = relation.Value(i), relation.Value(-i)
	}
	if grow.Len() != 50 || grow.Tuple(49)[1] != -49 || grow.Annot(0) != 0 || grow.Annot(1) != 1 {
		t.Fatal("unreserved AppendRow lost rows")
	}
	scalar.Reserve(0, 2)
	scalar.AppendRow(1)
	scalar.AppendRow(7)
	if scalar.Len() != 2 || scalar.Annot(1) != 7 {
		t.Fatal("width-0 rows must still count and carry annotations")
	}

	// A part filled by many small reservations — one local join per light
	// group of an r-hierarchical join — must grow geometrically: exact
	// growth copied the whole part once per reservation (quadratic; 90 s
	// instead of 0.2 s on a 300 k-row tall-flat output at p = 1).
	var steps Columns
	moves, base := 0, (*relation.Value)(nil)
	for g := 0; g < 4096; g++ {
		steps.Reserve(2, 3)
		for i := 0; i < 3; i++ {
			steps.AppendRow(int64(g))[0] = relation.Value(g)
		}
		if p := &steps.values[0]; p != base {
			moves, base = moves+1, p
		}
	}
	if steps.Len() != 3*4096 || steps.Tuple(3 * 4095)[0] != 4095 || steps.Annot(3*4095) != 4095 {
		t.Fatal("stepwise reservations lost rows")
	}
	if moves > 16 {
		t.Fatalf("4096 small reservations moved the buffer %d times: growth is not geometric", moves)
	}
}

// TestProjectMatchesMapLocal: the columnar projection equals the per-item
// projection it replaced (a local map over the rows), keeps unannotated
// parts lazy, and is the identity on the collection's own schema.
func TestProjectMatchesMapLocal(t *testing.T) {
	c := NewCluster(4)
	schema := relation.NewSchema(1, 2, 3)
	target := relation.NewSchema(3, 1)
	pos := schema.Positions(target)
	for _, annotated := range []bool{false, true} {
		d := NewDist(c, schema)
		rng := NewRng(9)
		for s := range d.Parts {
			d.Parts[s] = randomColumns(rng, 10*s, 3, 20, annotated) // part 0 stays empty
		}
		want := NewDist(c, target)
		for s := range d.Parts {
			for i := 0; i < d.Parts[s].Len(); i++ {
				it := d.Parts[s].Item(i)
				want.Parts[s].Append(relation.Tuple{it.T[pos[0]], it.T[pos[1]]}, it.A)
			}
		}
		got := d.Project(target)
		if !got.Schema.Equal(target) || !partsEqual(got, want) {
			t.Fatalf("annotated=%v: Project differs from the per-item projection", annotated)
		}
		if got.hasAnnots() != annotated {
			t.Fatalf("annotated=%v: projected annotation column materialized = %v", annotated, got.hasAnnots())
		}
		if d.Project(schema) != d {
			t.Fatal("projecting onto the own schema must return the collection itself")
		}
	}
}

// TestGatherMatchesTupleProjection: Gather writes each row's projection
// onto pos, row after row, exactly as reading Tuple(i)[p] would — for the
// empty projection, one column and several in a non-identity order — and
// touches nothing past rows·len(pos) in its destination.
func TestGatherMatchesTupleProjection(t *testing.T) {
	const junk = -0x5eed
	cols := randomColumns(NewRng(4), 37, 3, 50, false)
	for _, pos := range [][]int{nil, {1}, {2, 0}, {0, 1, 2}} {
		n := cols.Len() * len(pos)
		dst := make([]relation.Value, n+2)
		for i := range dst {
			dst[i] = junk
		}
		cols.Gather(dst, pos)
		for i := 0; i < cols.Len(); i++ {
			for j, p := range pos {
				if got, want := dst[i*len(pos)+j], cols.Tuple(i)[p]; got != want {
					t.Fatalf("pos %v: row %d column %d gathered %d, want %d", pos, i, j, got, want)
				}
			}
		}
		if dst[n] != junk || dst[n+1] != junk {
			t.Fatalf("pos %v: Gather wrote past its %d values", pos, n)
		}
	}
}

// TestConcatReservesOnce: a union of sources already in the target's layout
// keeps every row in source-major order and fills each part from one exact
// reservation.
func TestConcatReservesOnce(t *testing.T) {
	c := NewCluster(3)
	schema := relation.NewSchema(1, 2)
	rng := NewRng(5)
	a, b := NewDist(c, schema), NewDist(c, schema)
	for s := range a.Parts {
		a.Parts[s] = randomColumns(rng, 5+s, 2, 9, false)
		b.Parts[s] = randomColumns(rng, 7, 2, 9, s == 1)
	}
	got := Concat(schema, a, b)
	for s := range got.Parts {
		var want Columns
		want.AppendColumns(&a.Parts[s])
		want.AppendColumns(&b.Parts[s])
		if !got.Parts[s].Equal(&want) {
			t.Fatalf("part %d: Concat changed rows or their order", s)
		}
		if cap(got.Parts[s].values) != got.Parts[s].Len()*2 {
			t.Fatalf("part %d: capacity %d for %d rows", s, cap(got.Parts[s].values), got.Parts[s].Len())
		}
	}
}

// TestConcatContract pins the one union-and-projection path. Part s of the
// result is part s of every non-empty source, source-major and in order,
// gathered onto the target's columns (extra columns dropped, the rest
// reordered) into a buffer of exactly rows·w values; the annotation column
// of a part is materialized exactly when some source's is; empty sources
// of any schema are skipped; a single non-empty source already in the
// target's layout comes back as is; a width-0 target still counts rows;
// and a non-empty source missing a target attribute panics.
func TestConcatContract(t *testing.T) {
	c := NewCluster(3)
	rng := NewRng(5)
	target := relation.NewSchema(3, 1)
	inLayout := NewDist(c, target)
	wide := NewDist(c, relation.NewSchema(1, 9, 3)) // target reordered, plus column 9
	for s := range inLayout.Parts {
		inLayout.Parts[s] = randomColumns(rng, 5+s, 2, 9, false)
		wide.Parts[s] = randomColumns(rng, 7*s, 3, 9, s == 1) // part 0 empty, part 1 annotated
	}
	other := NewDist(c, relation.NewSchema(42)) // empty, and sharing no attribute

	got := Concat(target, other, inLayout, wide, other)
	if !got.Schema.Equal(target) {
		t.Fatalf("schema %v, want %v", got.Schema, target)
	}
	for s := range got.Parts {
		var want Columns
		src := &inLayout.Parts[s]
		for i := 0; i < src.Len(); i++ {
			want.Append(src.Tuple(i), src.Annot(i))
		}
		src = &wide.Parts[s]
		for i := 0; i < src.Len(); i++ {
			row := src.Tuple(i)
			want.Append(relation.Tuple{row[2], row[0]}, src.Annot(i))
		}
		part := &got.Parts[s]
		if !part.Equal(&want) {
			t.Fatalf("part %d: rows differ from the sources' projections, source-major", s)
		}
		if cap(part.values) != part.Len()*2 {
			t.Fatalf("part %d: capacity %d for %d rows of width 2", s, cap(part.values), part.Len())
		}
		if part.Annotated() != (s == 1) {
			t.Fatalf("part %d: annotation column materialized = %v", s, part.Annotated())
		}
	}

	if Concat(target, other, inLayout, NewDist(c, target)) != inLayout {
		t.Fatal("a single non-empty source in the target's layout must come back as is")
	}
	if Concat(target, wide) == wide || Concat(relation.NewSchema(1, 9, 3), wide) != wide {
		t.Fatal("a source is aliased exactly when it is already in the target's layout")
	}
	if a := testing.AllocsPerRun(10, func() { inLayout.Project(target) }); a != 0 {
		t.Fatalf("projecting a collection onto its own layout allocates %.0f per call", a)
	}
	if e := Concat(target, other, NewDist(c, target)); e.Size() != 0 || !e.Schema.Equal(target) {
		t.Fatal("a union of empty sources must be an empty collection over the target")
	}

	scalar := Concat(relation.Schema{}, inLayout, wide)
	for s := range scalar.Parts {
		part := &scalar.Parts[s]
		if n := inLayout.Parts[s].Len() + wide.Parts[s].Len(); part.Len() != n || part.Width() != 0 {
			t.Fatalf("width-0 part %d holds %d rows of width %d, want %d rows", s, part.Len(), part.Width(), n)
		}
		if n := inLayout.Parts[s].Len(); s == 1 && part.Annot(n) != wide.Parts[1].Annot(0) {
			t.Fatal("width-0 rows lost their annotations")
		}
	}

	defer func() {
		if recover() == nil {
			t.Fatal("a non-empty source missing a target attribute did not panic")
		}
	}()
	Concat(relation.NewSchema(3, 7), other, inLayout)
}

// TestRowIndexGroupsInInsertionOrder checks the index against a map of row
// lists: every key's chain lists exactly its rows, in insertion order;
// absent keys miss; the empty key chains every row.
func TestRowIndexGroupsInInsertionOrder(t *testing.T) {
	rng := NewRng(21)
	for _, n := range []int{0, 1, 7, 500} {
		cols := randomColumns(rng, n, 3, 6, false) // small domain: many duplicates
		pos := []int{2, 0}
		want := map[[2]relation.Value][]int{}
		for i := 0; i < n; i++ {
			k := [2]relation.Value{cols.Tuple(i)[2], cols.Tuple(i)[0]}
			want[k] = append(want[k], i)
		}
		ix := IndexRows(&cols, pos)
		for a := relation.Value(0); a < 7; a++ {
			for b := relation.Value(0); b < 7; b++ {
				var got []int
				// The probe tuple holds the key at other positions than the
				// indexed rows do.
				for r := ix.First(relation.Tuple{a, 99, b}, []int{0, 2}); r >= 0; r = ix.Next(r) {
					got = append(got, r)
				}
				if !reflect.DeepEqual(got, want[[2]relation.Value{a, b}]) {
					t.Fatalf("n=%d key (%d,%d): chain %v, want %v", n, a, b, got, want[[2]relation.Value{a, b}])
				}
			}
		}
		ix.Release()

		all := IndexRows(&cols, nil)
		i := 0
		for r := all.First(nil, nil); r >= 0; r = all.Next(r) {
			if r != i {
				t.Fatalf("n=%d: keyless chain visits row %d at step %d", n, r, i)
			}
			i++
		}
		if i != n {
			t.Fatalf("n=%d: keyless chain has %d rows", n, i)
		}
		all.Release()
	}
}

// TestRowIndexOpensIsFirst pins the flag the build records against the
// definition it replaced: row i opens its group exactly when looking its
// own key up returns i — on random parts, one heavy key, all-distinct keys,
// the empty key (every row in one group) and the empty part, with the
// index arrays recycled from a pool that held other data.
func TestRowIndexOpensIsFirst(t *testing.T) {
	rng := NewRng(33)
	for _, tc := range []struct {
		name   string
		n, dom int
		pos    []int
	}{
		{"random", 500, 6, []int{2, 0}},
		{"one heavy key", 300, 1, []int{1}},
		{"all distinct", 400, 1 << 30, []int{0, 1, 2}},
		{"empty pos", 50, 6, nil},
		{"empty part", 0, 6, []int{1}},
		{"single row", 1, 6, []int{1}},
	} {
		cols := randomColumns(rng, tc.n, 3, tc.dom, false)
		ix := IndexRows(&cols, tc.pos)
		opens := 0
		for i := 0; i < tc.n; i++ {
			want := ix.First(cols.Tuple(i), tc.pos) == i
			if ix.Opens(i) != want {
				t.Fatalf("%s: Opens(%d) = %v, First says %v", tc.name, i, ix.Opens(i), want)
			}
			if want {
				opens++
			}
		}
		if opens != ix.Groups() {
			t.Fatalf("%s: %d rows open a group, Groups() = %d", tc.name, opens, ix.Groups())
		}
		ix.Release()
	}
}

// TestEmitterBorrowsTuple is the Emitter contract: t is only borrowed. The
// same rows are emitted twice — each from a fresh tuple, and all from one
// reused scratch tuple that is overwritten after every call — into both
// sinks, and each must end in the same state, the table row for row the
// projected source in part-major order.
func TestEmitterBorrowsTuple(t *testing.T) {
	const p = 4
	schema := relation.NewSchema(7, 5)
	rng := NewRng(17)
	parts := make([]Columns, p)
	for s := range parts {
		parts[s] = randomColumns(rng, 20+s, 3, 30, s%2 == 1)
	}
	// The emitted layout is columns 2 and 0 of the source rows.
	feed := func(reuse bool) (*CountEmitter, *relation.Relation) {
		count, sharded := NewCountEmitter(relation.CountRing), NewShardedEmitter(schema, p)
		tup := make(relation.Tuple, 2)
		for s := range parts {
			for i := 0; i < parts[s].Len(); i++ {
				row := parts[s].Tuple(i)
				if !reuse {
					tup = make(relation.Tuple, 2)
				}
				for _, em := range []Emitter{count, sharded} {
					tup[0], tup[1] = row[2], row[0]
					em.Emit(s, tup, parts[s].Annot(i))
					if reuse {
						tup[0], tup[1] = -1, -1 // a retained alias would now be corrupt
					}
				}
			}
		}
		if sharded.N() != count.N {
			t.Fatalf("reuse=%v: table holds %d rows, counter saw %d", reuse, sharded.N(), count.N)
		}
		return count, sharded.Rel()
	}
	wantCount, want := feed(false)
	gotCount, got := feed(true)
	if wantCount.N == 0 || want.Size() != int(wantCount.N) {
		t.Fatal("reference run emitted nothing")
	}
	if gotCount.N != wantCount.N || gotCount.AnnotSum != wantCount.AnnotSum {
		t.Fatal("counters differ from per-row fresh tuples")
	}
	if !reflect.DeepEqual(got.Tuples, want.Tuples) || !reflect.DeepEqual(got.Annots, want.Annots) {
		t.Fatal("materialized rows differ from per-row fresh tuples")
	}
	src := &Dist{C: NewCluster(p), Schema: relation.NewSchema(5, 6, 7), Parts: parts}
	if proj := src.Project(schema).Rel(); !reflect.DeepEqual(got.Tuples, proj.Tuples) || !reflect.DeepEqual(got.Annots, proj.Annots) {
		t.Fatal("the table is not the projected source, part-major")
	}
}

// TestReplicateAppendMatchesReplicateBy: the append-style router delivers
// exactly what the list-returning adapter delivers, at every width, and its
// counting pass allocates per task, not per row.
func TestReplicateAppendMatchesReplicateBy(t *testing.T) {
	const p, n = 16, 20000
	byList := func(it Item) []int {
		v := int(it.T[1])
		return []int{v % p, (v*7 + 1) % p}
	}
	byAppend := func(it Item, dst []int) []int {
		v := int(it.T[1])
		return append(dst, v%p, (v*7+1)%p)
	}
	for _, width := range []int{1, 2, 8} {
		prev := runtime.SetParallelism(width)
		ref, got := NewCluster(p), NewCluster(p)
		want := exchangeTestDist(ref, n, 11).ReplicateBy(byList)
		have := exchangeTestDist(got, n, 11).ReplicateAppend(byAppend)
		runtime.SetParallelism(prev)
		if !partsEqual(want, have) || !reflect.DeepEqual(roundTable(ref), roundTable(got)) {
			t.Fatalf("width %d: ReplicateAppend differs from ReplicateBy", width)
		}
	}

	prev := runtime.SetParallelism(1)
	defer runtime.SetParallelism(prev)
	d := exchangeTestDist(NewCluster(p), n, 11)
	d.ReplicateAppend(byAppend) // warm the scratch pool
	if got := testing.AllocsPerRun(10, func() { d.ReplicateAppend(byAppend) }); got > 120 {
		t.Fatalf("ReplicateAppend allocates %.0f per run for %d rows — per-row allocations are back", got, n)
	}
}

// TestMapAnnotsIsAView: MapAnnots shares the value buffer and replaces the
// annotation column, which stays absent while every annotation is 1; an
// append to the view never reaches its source. Dist.Rel leaves Annots nil
// exactly when no part materialized the column.
func TestMapAnnotsIsAView(t *testing.T) {
	schema := relation.NewSchema(1, 2, 3)
	extra := relation.Tuple{-1, -2, -3}
	for _, annotated := range []bool{false, true} {
		src := randomColumns(NewRng(5), 40, 3, 9, annotated)
		d := &Dist{C: NewCluster(1), Schema: schema, Parts: []Columns{src}}
		if rel := d.Rel(); (rel.Annots != nil) != annotated || rel.Size() != 40 {
			t.Fatalf("annotated=%v: Rel().Annots materialized = %v", annotated, rel.Annots != nil)
		}
		ones, doubled := d.MapAnnots(nil), d.MapAnnots(func(a int64) int64 { return 2 * a })
		if &ones.Parts[0].values[0] != &src.values[0] || &doubled.Parts[0].values[0] != &src.values[0] {
			t.Fatalf("annotated=%v: MapAnnots copied the value buffer", annotated)
		}
		if ones.Parts[0].Annotated() || d.MapAnnots(func(int64) int64 { return 1 }).Parts[0].Annotated() {
			t.Fatalf("annotated=%v: the all-ones view materialized an annotation column", annotated)
		}
		for i := 0; i < src.Len(); i++ {
			if ones.Parts[0].Annot(i) != 1 || doubled.Parts[0].Annot(i) != 2*src.Annot(i) {
				t.Fatalf("annotated=%v: row %d: views carry %d and %d", annotated, i, ones.Parts[0].Annot(i), doubled.Parts[0].Annot(i))
			}
		}
		doubled.Parts[0].Append(extra, 3)
		if src.Len() != 40 || src.Annot(39) != d.Parts[0].Annot(39) {
			t.Fatalf("annotated=%v: appending to a view reached its source", annotated)
		}
	}
}
