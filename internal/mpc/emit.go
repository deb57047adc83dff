package mpc

import "repro/internal/relation"

// Emitter observes join results row by row. Emission is the model's
// zero-cost emit(): it charges no load. A join's result is the Dist it
// returns; an Emitter is how a caller watches one being replayed
// (core.EmitDist, engine.Job.Emitter), serially, in part order.
//
// t is borrowed for the duration of the call: producers emit from one
// reused scratch tuple, so a sink that keeps a result must copy it
// (ShardedEmitter copies into its own buffer) and must not write to it.
type Emitter interface {
	Emit(server int, t relation.Tuple, annot int64)
}

// CountEmitter counts results and sums annotations (for COUNT-style
// verification) without materializing tuples.
type CountEmitter struct {
	N        int64
	AnnotSum int64
	ring     relation.Semiring
}

// NewCountEmitter returns a counter aggregating annotations in ring.
func NewCountEmitter(ring relation.Semiring) *CountEmitter {
	return &CountEmitter{AnnotSum: ring.Zero, ring: ring}
}

// Emit implements Emitter.
func (e *CountEmitter) Emit(_ int, _ relation.Tuple, annot int64) {
	e.N++
	e.AnnotSum = e.ring.Add(e.AnnotSum, annot)
}

// ShardedEmitter materializes results into one buffer per partition
// (usually server s of the emitting cluster) and merges them
// partition-major, emission order preserved inside each partition — a
// Dist without a cluster, filled row by row.
type ShardedEmitter struct {
	d Dist
}

// NewShardedEmitter returns a sharded collector over the given output
// schema with one buffer per partition. Buffers are columnar: plain joins
// never materialize an annotation column in them.
func NewShardedEmitter(schema relation.Schema, parts int) *ShardedEmitter {
	return &ShardedEmitter{d: Dist{Schema: schema, Parts: make([]Columns, max(parts, 1))}}
}

// Emit implements Emitter. The flat buffer copies t's values on append, so
// no defensive Clone is needed however the producer reuses its scratch.
func (e *ShardedEmitter) Emit(server int, t relation.Tuple, annot int64) {
	if server < 0 || server >= len(e.d.Parts) {
		panic("mpc: ShardedEmitter partition out of range")
	}
	e.d.Parts[server].Append(t, annot)
}

// N returns the total number of emitted results across partitions.
func (e *ShardedEmitter) N() int64 { return int64(e.d.Size()) }

// Rel merges the buffers into one relation, partition-major (Dist.Rel).
func (e *ShardedEmitter) Rel() *relation.Relation { return e.d.Rel() }
