package core

import (
	"reflect"
	"testing"

	"repro/internal/mpc"
	"repro/internal/relation"
	"repro/internal/runtime"
)

// TestEmitDistParallelMatchesSerial: the two readings of a result agree.
// The engine's — Project under runtime.Fork, then Rel — at several widths
// is row for row what EmitDist's serial replay hands an observer: parts in
// server order, rows in part order, projected onto the emitted schema.
func TestEmitDistParallelMatchesSerial(t *testing.T) {
	const p, n = 8, 3 << 12
	c := mpc.NewCluster(p)
	r := relation.New("R", relation.NewSchema(1, 2))
	rng := mpc.NewRng(7)
	for i := 0; i < n; i++ {
		r.AddAnnotated(int64(1+i%3), relation.Value(rng.Intn(64)), relation.Value(i))
	}
	d := mpc.FromRelation(c, r)
	schema := relation.NewSchema(2, 1) // projection with reordering

	counter, sharded := mpc.NewCountEmitter(relation.CountRing), mpc.NewShardedEmitter(schema, p)
	EmitDist(d, schema, counter)
	EmitDist(d, schema, sharded)
	if counter.N != n || counter.AnnotSum != 2*n || sharded.N() != n {
		t.Fatalf("observers saw %d rows (annotation sum %d) and %d rows, want %d (%d)", counter.N, counter.AnnotSum, sharded.N(), n, 2*n)
	}
	want := sharded.Rel()
	for s, k := 0, 0; s < p; s++ {
		for i := 0; i < d.Parts[s].Len(); i, k = i+1, k+1 {
			row := d.Parts[s].Tuple(i)
			if want.Tuples[k][0] != row[1] || want.Tuples[k][1] != row[0] || want.Annots[k] != d.Parts[s].Annot(i) {
				t.Fatalf("observed row %d is not row %d of part %d", k, i, s)
			}
		}
	}
	for _, width := range []int{1, 3, 8} {
		prev := runtime.SetParallelism(width)
		got := d.Project(schema).Rel()
		runtime.SetParallelism(prev)
		if !reflect.DeepEqual(got.Tuples, want.Tuples) || !reflect.DeepEqual(got.Annots, want.Annots) {
			t.Fatalf("width %d: the projected table differs from the serial replay", width)
		}
	}
}
