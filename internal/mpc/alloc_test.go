package mpc

import (
	"testing"

	"repro/internal/relation"
	"repro/internal/runtime"
)

// TestExchangeScatterAllocCeiling is the allocation-regression guard for
// the batched exchange: a steady-state hash shuffle allocates the output
// columns and the plan bookkeeping — NEVER anything per item. Before the
// columnar refactor a shuffle cost ~3 allocations per item (key string,
// destination slice, part growth); the columnar plan, its task scratch
// drawn from a Pool, reads 25 for this configuration. The ceiling leaves
// room for pool misses after a GC, but any per-item regression blows
// through it by two orders of magnitude.
func TestExchangeScatterAllocCeiling(t *testing.T) {
	const p, n, ceiling = 16, 8192, 120
	prev := runtime.SetParallelism(1)
	defer runtime.SetParallelism(prev)
	c := NewCluster(p)
	d := exchangeTestDist(c, n, 11)
	pos := []int{0}
	d.ShuffleByKey(pos, 7) // warm the scratch pool
	got := testing.AllocsPerRun(20, func() { d.ShuffleByKey(pos, 7) })
	if got > ceiling {
		t.Fatalf("exchange shuffle allocates %.0f per run (n=%d, p=%d), ceiling %d — per-item allocations are back",
			got, n, p, ceiling)
	}
}

// TestColumnsEqualContract pins the flat-buffer equality contract: Equal
// compares rows — tuple values and annotation values — never
// representations. Parts holding identical rows must compare equal no
// matter how their buffers were built (Append growth with slack capacity vs
// exact-size resize+setRow) and no matter whether the all-1s annotation
// column is nil or materialized; any value, annotation, width, or row-count
// difference must break equality.
func TestColumnsEqualContract(t *testing.T) {
	rows := []relation.Tuple{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}}

	// Append-grown, lazy annotations, deliberately oversized capacity.
	grown := Columns{width: 3, values: make([]relation.Value, 0, 64*3)}
	for _, r := range rows {
		grown.Append(r, 1)
	}
	// Exact-size resize+setRow with a materialized all-1s annotation column
	// — the exchange's scatter-side representation.
	var sized Columns
	sized.resize(3, len(rows), true)
	for i, r := range rows {
		sized.setRow(i, r, 1)
	}
	if grown.Annotated() || !sized.Annotated() {
		t.Fatal("test premise broken: representations do not differ")
	}
	if !grown.Equal(&sized) || !sized.Equal(&grown) {
		t.Fatal("identical rows in differently-built buffers must compare equal")
	}

	// Width-0 scalar rows still count and compare.
	var s0, s1 Columns
	for i := 0; i < 3; i++ {
		s0.Append(relation.Tuple{}, 1)
		s1.Append(relation.Tuple{}, 1)
	}
	s1.materializeAnnots()
	if !s0.Equal(&s1) {
		t.Fatal("width-0 parts with identical rows must compare equal")
	}
	s1.Append(relation.Tuple{}, 1)
	if s0.Equal(&s1) {
		t.Fatal("row-count difference must break equality")
	}

	// Empty parts compare equal whatever widths they have adopted.
	e2, e5 := Columns{width: 2, values: make([]relation.Value, 0, 4*2)}, Columns{width: 5}
	if !e2.Equal(&e5) {
		t.Fatal("empty parts must compare equal regardless of width")
	}

	// Value, annotation, and width differences each break equality.
	var valDiff Columns
	for _, r := range rows {
		valDiff.Append(r, 1)
	}
	valDiff.values[4] = 99
	if grown.Equal(&valDiff) {
		t.Fatal("value difference must break equality")
	}
	var annotDiff Columns
	annotDiff.resize(3, len(rows), true)
	for i, r := range rows {
		annotDiff.setRow(i, r, 1)
	}
	annotDiff.annots[2] = 7
	if grown.Equal(&annotDiff) {
		t.Fatal("annotation difference must break equality")
	}
	var wideDiff Columns
	wideDiff.resize(9, 1, false)
	var narrow Columns
	narrow.resize(3, 1, false)
	if narrow.Equal(&wideDiff) {
		t.Fatal("width difference must break equality")
	}
}

// TestExchangeAnnotColumnElided pins the lazy annotation column: routing an
// unannotated collection must not materialize annotation storage in any
// output part, while an annotated input materializes it everywhere needed.
func TestExchangeAnnotColumnElided(t *testing.T) {
	c := NewCluster(8)
	plain := FromRelation(c, mkRel(500)).ShuffleByKey([]int{0}, 3)
	for s := range plain.Parts {
		if plain.Parts[s].Annotated() {
			t.Fatalf("server %d materialized an annotation column for an unannotated input", s)
		}
	}

	r := mkRel(500)
	r.AddAnnotated(7, 999, 0)
	annotated := FromRelation(c, r).ShuffleByKey([]int{0}, 3)
	sum := int64(0)
	for s := range annotated.Parts {
		part := &annotated.Parts[s]
		for i := 0; i < part.Len(); i++ {
			sum += part.Annot(i)
		}
	}
	if sum != 500+7 {
		t.Fatalf("annotation sum after shuffle = %d, want %d", sum, 500+7)
	}
}
