package core

import (
	"reflect"
	"testing"

	"repro/internal/mpc"
	"repro/internal/relation"
	"repro/internal/runtime"
)

// TestEmitDistParallelMatchesSerial drives EmitDist's lock-free parallel
// path (every sink shard-safe: counter, sharded collector, per-server
// counter) at several widths and checks each emitter's state is identical
// to the serial CollectEmitter reference. Run under -race this proves the
// per-partition ownership contract holds.
func TestEmitDistParallelMatchesSerial(t *testing.T) {
	const p, n = 8, 3 * emitSerialBelow
	c := mpc.NewCluster(p)
	r := relation.New("R", relation.NewSchema(1, 2))
	rng := mpc.NewRng(7)
	for i := 0; i < n; i++ {
		r.Add(relation.Value(rng.Intn(64)), relation.Value(i))
	}
	d := mpc.FromRelation(c, r)
	schema := relation.NewSchema(2, 1) // projection with reordering

	ref := mpc.NewCollectEmitter(schema)
	EmitDist(d, schema, ref)

	for _, width := range []int{1, 3, 8} {
		prev := runtime.SetParallelism(width)
		counter := mpc.NewCountEmitter(relation.CountRing)
		sharded := mpc.NewShardedEmitter(schema, p)
		perServer := mpc.NewPerServerCounter(p)
		EmitDist(d, schema, mpc.MultiEmitter{counter, sharded, perServer})
		runtime.SetParallelism(prev)

		if counter.N != int64(n) {
			t.Fatalf("width %d: counter.N = %d, want %d", width, counter.N, n)
		}
		// Annotations compare through Annot(i): an all-ones column has two
		// representations (nil and materialized).
		got := sharded.Rel()
		if !reflect.DeepEqual(got.Tuples, ref.Rel.Tuples) {
			t.Fatalf("width %d: sharded merge differs from serial collect", width)
		}
		for i := range got.Tuples {
			if got.Annot(i) != ref.Rel.Annot(i) {
				t.Fatalf("width %d: row %d annotated %d, serial collect has %d", width, i, got.Annot(i), ref.Rel.Annot(i))
			}
		}
		var perTotal int64
		for s, cnt := range perServer.Counts {
			if int(cnt) != d.Parts[s].Len() {
				t.Fatalf("width %d: server %d count %d, want %d", width, s, cnt, d.Parts[s].Len())
			}
			perTotal += cnt
		}
		if perTotal != int64(n) {
			t.Fatalf("width %d: per-server total %d, want %d", width, perTotal, n)
		}
	}
}
