package mpc

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/relation"
	"repro/internal/runtime"
)

// Tests for the per-server passes around a join — placement, the parts →
// relation conversion and the annotation fold: each runs one task per part,
// so its bytes must not depend on the width.

// dirtyIndexArrays takes k index arrays from the pool at once, fills them
// to length n with out-of-range chain links and slot heads, and returns
// them, so the next IndexRows draws arrays whose every read-before-write
// would corrupt a chain.
func dirtyIndexArrays(k, n int) {
	if k == 0 {
		return
	}
	a := indexArraysPool.Get()
	defer indexArraysPool.Put(a)
	a.slots, a.next = Resize(a.slots, n), Resize(a.next, n)
	for i := 0; i < n; i++ {
		a.slots[i], a.next[i] = -7, 1<<30
	}
	dirtyIndexArrays(k-1, n)
}

// randomRelation is n rows of the given arity over [0, dom), annotated
// with draws in [2, 7) when annotated.
func randomRelation(rng *Rng, n, arity, dom int, annotated bool) *relation.Relation {
	attrs := make([]relation.Attr, arity)
	for i := range attrs {
		attrs[i] = relation.Attr(i + 1)
	}
	r := relation.New("R", relation.NewSchema(attrs...))
	row := make([]relation.Value, arity)
	for i := 0; i < n; i++ {
		for j := range row {
			row[j] = relation.Value(rng.Intn(dom))
		}
		if annotated {
			r.AddAnnotated(int64(2+rng.Intn(5)), row...)
		} else {
			r.Add(row...)
		}
	}
	return r
}

// serialRelation is the parts → relation conversion as one serial
// part-major append, the reference Dist.relation's windows must equal.
func serialRelation(d *Dist, withAnnots bool) ([]relation.Tuple, []int64) {
	tuples := make([]relation.Tuple, 0, d.Size())
	var annots []int64
	if withAnnots {
		annots = make([]int64, 0, d.Size())
	}
	for s := range d.Parts {
		for i := 0; i < d.Parts[s].Len(); i++ {
			tuples = append(tuples, d.Parts[s].Tuple(i))
			if withAnnots {
				annots = append(annots, d.Parts[s].Annot(i))
			}
		}
	}
	return tuples, annots
}

// TestPerServerPassesMatchAcrossWidths: FromRelation places row s+j·p at
// part s, row j, and charges the same input at widths 1, 2 and 8; Rel and
// ToRelation equal the serial part-major conversion, Annots nil exactly
// when Rel should leave it so. Pools are filled with junk before every run.
func TestPerServerPassesMatchAcrossWidths(t *testing.T) {
	for _, annotated := range []bool{false, true} {
		for _, n := range []int{0, 1, 5, 1000} {
			r := randomRelation(NewRng(uint64(n)), n, 3, 40, annotated)
			var ref *Dist
			var refStats Stats
			for _, width := range []int{1, 2, 8} {
				t.Run(fmt.Sprintf("annotated=%v/n=%d/width=%d", annotated, n, width), func(t *testing.T) {
					prev := runtime.SetParallelism(width)
					defer runtime.SetParallelism(prev)
					dirtyTaskScratch(8, 64)
					dirtyIndexArrays(8, 64)
					c := NewCluster(7)
					d := FromRelation(c, r)
					for s := range d.Parts {
						if d.Parts[s].Annotated() != (annotated && d.Parts[s].Len() > 0) {
							t.Fatalf("part %d: annotation column materialized = %v", s, d.Parts[s].Annotated())
						}
						for j := 0; j < d.Parts[s].Len(); j++ {
							i := s + j*c.P
							if !reflect.DeepEqual(d.Parts[s].Tuple(j), r.Tuples[i]) || d.Parts[s].Annot(j) != r.Annot(i) {
								t.Fatalf("part %d row %d = %v/%d, want row %d = %v/%d",
									s, j, d.Parts[s].Tuple(j), d.Parts[s].Annot(j), i, r.Tuples[i], r.Annot(i))
							}
						}
					}
					if d.Size() != n {
						t.Fatalf("placed %d rows of %d", d.Size(), n)
					}
					if ref == nil {
						ref, refStats = d, c.Snapshot()
					}
					for s := range d.Parts {
						if !d.Parts[s].Equal(&ref.Parts[s]) {
							t.Fatalf("part %d differs from width 1's", s)
						}
					}
					if !reflect.DeepEqual(c.Snapshot(), refStats) {
						t.Fatal("placement charged differently from width 1")
					}
					for _, withAnnots := range []bool{false, true} {
						rel := d.Rel()
						if withAnnots {
							rel = d.ToRelation("out")
						}
						wantT, wantA := serialRelation(d, withAnnots || d.hasAnnots())
						if !reflect.DeepEqual(rel.Tuples, wantT) || !reflect.DeepEqual(rel.Annots, wantA) {
							t.Fatalf("withAnnots=%v: relation differs from the serial conversion", withAnnots)
						}
						if !reflect.DeepEqual(rel.Schema, d.Schema) {
							t.Fatalf("schema %v, want %v", rel.Schema, d.Schema)
						}
					}
				})
			}
		}
	}
}

// TestSumAnnotsIsTheRowOrderFold: the double-and-add fold of a lazy column
// and the loop over a materialized one equal ring.Add folded row by row
// from Zero, under every ring and for row counts around the powers of two.
func TestSumAnnotsIsTheRowOrderFold(t *testing.T) {
	rings := []relation.Semiring{relation.CountRing, relation.BoolRing, relation.MaxPlusRing}
	for _, ring := range rings {
		for _, n := range []int{0, 1, 2, 3, 4, 7, 8, 9, 63, 64, 65, 1000} {
			for _, annotated := range []bool{false, true} {
				c := randomColumns(NewRng(uint64(n)), n, 2, 10, annotated)
				want := ring.Zero
				for i := 0; i < c.Len(); i++ {
					want = ring.Add(want, c.Annot(i))
				}
				if got := c.SumAnnots(ring); got != want {
					t.Errorf("%s n=%d annotated=%v: SumAnnots = %d, row-order fold %d", ring.Name, n, annotated, got, want)
				}
			}
		}
	}
}
