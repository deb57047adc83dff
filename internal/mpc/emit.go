package mpc

import (
	"sync"

	"repro/internal/relation"
)

// Emitter receives join results. Emission is the model's zero-cost emit():
// it charges no load. The schema of emitted tuples is fixed per join.
//
// t is borrowed for the duration of the call: producers emit from reused
// scratch tuples and from windows into flat part buffers, so a sink that
// keeps a result must copy it (CollectEmitter clones, ShardedEmitter copies
// into its own buffer) and must not write to it.
type Emitter interface {
	Emit(server int, t relation.Tuple, annot int64)
}

// A ColumnSink is an emitter that takes a whole part at once. EmitColumns
// must leave the sink exactly as the per-row calls
//
//	Emit(server, cols.Tuple(i) projected onto pos, cols.Annot(i))   i = 0 … Len()−1
//
// would (pos nil keeps every column), without a tuple per row: counting
// sinks fold the annotation column, materializing sinks reserve once and
// copy. Unlike Emit's t, cols is not merely borrowed: its buffers are never
// written again after the call — parts are written only while they are
// built, and a producer emits a part once it is complete — so a
// materializing sink may keep a view of them instead of a copy, and must
// not write through it.
type ColumnSink interface {
	Emitter
	EmitColumns(server int, cols *Columns, pos []int)
}

// EmitColumns reports every row of cols, projected onto pos, to em: in
// bulk when em is a ColumnSink, otherwise row by row through one reused
// scratch tuple (the Emitter contract lets sinks only borrow it).
func EmitColumns(em Emitter, server int, cols *Columns, pos []int) {
	if cs, ok := em.(ColumnSink); ok {
		cs.EmitColumns(server, cols, pos)
		return
	}
	if pos == nil {
		for i := 0; i < cols.Len(); i++ {
			em.Emit(server, cols.Tuple(i), cols.Annot(i))
		}
		return
	}
	t := make(relation.Tuple, len(pos))
	for i := 0; i < cols.Len(); i++ {
		src := cols.Tuple(i)
		for j, p := range pos {
			t[j] = src[p]
		}
		em.Emit(server, t, cols.Annot(i))
	}
}

// A PartitionedSink is an emitter that is lock-free under the exchange's
// per-partition ownership contract: concurrent producers are safe as long
// as each partition (server) has exactly one. Parallel emission paths
// discover the capability through this interface rather than enumerating
// concrete types.
type PartitionedSink interface {
	Emitter
	// Partitioned reports whether the sink accepts parts concurrent
	// producers, one per partition.
	Partitioned(parts int) bool
}

// A ForkingSink is an emitter that parallelizes by handing each worker its
// own lock-free emitter and folding them back in worker order. The merge
// must be deterministic for any grouping of the emissions (counting sinks
// over commutative semirings are).
type ForkingSink interface {
	Emitter
	// ForkWorker returns a fresh emitter owned by one worker.
	ForkWorker() Emitter
	// MergeWorkers folds the forked workers back, in the given order.
	MergeWorkers(workers []Emitter)
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

// EmitColumns implements ColumnSink: the annotations fold in row order.
//
//lint:alloc-ceiling
func (e *CountEmitter) EmitColumns(_ int, cols *Columns, _ []int) {
	e.N += int64(cols.Len())
	for i := 0; i < cols.Len(); i++ {
		e.AnnotSum = e.ring.Add(e.AnnotSum, cols.Annot(i))
	}
}

// Merge folds the counts of per-worker counters into e. The parallel
// pattern mirrors the cluster's shards: give every worker its own
// CountEmitter over the same ring (Fork), then Merge them at the join
// point.
func (e *CountEmitter) Merge(workers ...*CountEmitter) {
	for _, w := range workers {
		e.N += w.N
		e.AnnotSum = e.ring.Add(e.AnnotSum, w.AnnotSum)
	}
}

// Fork returns a fresh per-worker counter over e's ring, to be folded back
// with Merge.
func (e *CountEmitter) Fork() *CountEmitter { return NewCountEmitter(e.ring) }

// ForkWorker implements ForkingSink.
func (e *CountEmitter) ForkWorker() Emitter { return e.Fork() }

// MergeWorkers implements ForkingSink.
func (e *CountEmitter) MergeWorkers(workers []Emitter) {
	for _, w := range workers {
		e.Merge(w.(*CountEmitter))
	}
}

// CollectEmitter materializes every result into a relation on a single
// goroutine: the engine and the tests use it for serial materializing
// runs. Concurrent producers use ShardedEmitter (lock-free) or wrap a
// CollectEmitter in Synchronized (one mutex).
type CollectEmitter struct {
	Rel *relation.Relation
}

// NewCollectEmitter returns a collector over the given output schema.
func NewCollectEmitter(schema relation.Schema) *CollectEmitter {
	r := relation.New("out", schema)
	r.Annots = []int64{}
	return &CollectEmitter{Rel: r}
}

// Emit implements Emitter.
func (e *CollectEmitter) Emit(_ int, t relation.Tuple, annot int64) {
	e.Rel.Tuples = append(e.Rel.Tuples, t.Clone())
	e.Rel.Annots = append(e.Rel.Annots, annot)
}

// PerServerCounter tracks how many results each server emits; used by tests
// asserting that grid arrangements emit without redundancy.
type PerServerCounter struct {
	Counts []int64
}

// NewPerServerCounter returns a counter for p servers.
func NewPerServerCounter(p int) *PerServerCounter {
	return &PerServerCounter{Counts: make([]int64, p)}
}

// Emit implements Emitter.
func (e *PerServerCounter) Emit(server int, _ relation.Tuple, _ int64) {
	if server >= 0 && server < len(e.Counts) {
		e.Counts[server]++
	}
}

// EmitColumns implements ColumnSink.
//
//lint:alloc-ceiling
func (e *PerServerCounter) EmitColumns(server int, cols *Columns, _ []int) {
	if server >= 0 && server < len(e.Counts) {
		e.Counts[server] += int64(cols.Len())
	}
}

// Partitioned implements PartitionedSink: Emit only touches
// Counts[server], so one producer per server is race-free.
func (e *PerServerCounter) Partitioned(parts int) bool { return len(e.Counts) >= parts }

// Merge adds per-worker counters into e; the slices must be equal length.
func (e *PerServerCounter) Merge(workers ...*PerServerCounter) {
	for _, w := range workers {
		for s, n := range w.Counts {
			e.Counts[s] += n
		}
	}
}

// ShardedEmitter materializes results into per-partition buffers: the
// producer owning partition s (usually server s of the cluster) appends to
// buffer s without any lock, because no other producer touches it. The
// merged relation is assembled in partition order with the emission order
// preserved inside each partition, so the result is byte-identical for
// every worker count — including a single goroutine emitting partitions in
// order, which makes ShardedEmitter a drop-in for CollectEmitter in serial
// runs. This is what lets materializing runs drop Synchronized's mutex.
type ShardedEmitter struct {
	schema relation.Schema
	parts  []Columns
}

// NewShardedEmitter returns a sharded collector over the given output
// schema with one buffer per partition (one per server of the emitting
// cluster). Buffers are columnar: plain joins never materialize an
// annotation column in the buffers.
func NewShardedEmitter(schema relation.Schema, parts int) *ShardedEmitter {
	if parts < 1 {
		parts = 1
	}
	return &ShardedEmitter{schema: schema, parts: make([]Columns, parts)}
}

// Emit implements Emitter. Concurrent calls are safe if and only if each
// partition has a single producer — the exchange's disjoint-ownership
// contract. The flat buffer copies t's values on append, so no defensive
// Clone is needed however the producer reuses its tuple scratch.
func (e *ShardedEmitter) Emit(server int, t relation.Tuple, annot int64) {
	if server < 0 || server >= len(e.parts) {
		panic("mpc: ShardedEmitter partition out of range")
	}
	e.parts[server].Append(t, annot)
}

// EmitColumns implements ColumnSink. A part that arrives in the emitted
// layout (pos nil) at an empty partition is adopted: the partition becomes
// a capacity-clamped view of cols' buffers, so the producer's part and the
// collected table are one copy of the rows, and a later emission into the
// partition reallocates on append instead of writing into the producer's
// buffer. Everything else is one exact reservation and a block copy
// (projected when pos is set).
//
//lint:alloc-ceiling
func (e *ShardedEmitter) EmitColumns(server int, cols *Columns, pos []int) {
	if server < 0 || server >= len(e.parts) {
		panic("mpc: ShardedEmitter partition out of range")
	}
	if part := &e.parts[server]; pos == nil && part.rows == 0 {
		*part = cols.view()
		return
	}
	e.parts[server].AppendProjected(cols, pos)
}

// Partitions reports the number of buffers.
func (e *ShardedEmitter) Partitions() int { return len(e.parts) }

// Partitioned implements PartitionedSink.
func (e *ShardedEmitter) Partitioned(parts int) bool { return len(e.parts) >= parts }

// N returns the total number of emitted results across partitions.
func (e *ShardedEmitter) N() int64 {
	n := int64(0)
	for s := range e.parts {
		n += int64(e.parts[s].Len())
	}
	return n
}

// Rel merges the buffers into one relation, partition-major; the returned
// tuples are windows into the partitions' flat value buffers — which, for
// adopted parts, are the producer's: the relation is read-only. Annots
// stays nil (every annotation 1, as Relation.Annot reads it) unless some
// partition materialized an annotation column.
func (e *ShardedEmitter) Rel() *relation.Relation {
	r := relation.New("out", e.schema)
	n := e.N()
	r.Tuples = make([]relation.Tuple, 0, n)
	for s := range e.parts {
		if e.parts[s].hasAnnots() {
			r.Annots = make([]int64, 0, n)
			break
		}
	}
	for s := range e.parts {
		p := &e.parts[s]
		for i := 0; i < p.Len(); i++ {
			r.Tuples = append(r.Tuples, p.Tuple(i))
			if r.Annots != nil {
				r.Annots = append(r.Annots, p.Annot(i))
			}
		}
	}
	return r
}

// SyncEmitter serializes emissions with a mutex, making any Emitter —
// in particular materializing ones like CollectEmitter — safe for
// concurrent emitters sharing it across partitions. Counting emitters
// should prefer per-worker emitters merged at the barrier, and
// materializing runs with per-partition producers should prefer
// ShardedEmitter; both stay lock-free on the hot path.
type SyncEmitter struct {
	mu    sync.Mutex
	Inner Emitter
}

// Synchronized wraps e for concurrent use.
func Synchronized(e Emitter) *SyncEmitter { return &SyncEmitter{Inner: e} }

// Emit implements Emitter.
func (e *SyncEmitter) Emit(server int, t relation.Tuple, annot int64) {
	e.mu.Lock()
	e.Inner.Emit(server, t, annot)
	e.mu.Unlock()
}

// MultiEmitter fans one emission out to several emitters.
type MultiEmitter []Emitter

// Emit implements Emitter.
func (m MultiEmitter) Emit(server int, t relation.Tuple, annot int64) {
	for _, e := range m {
		e.Emit(server, t, annot)
	}
}

// EmitColumns implements ColumnSink: each sink takes the part in bulk if
// it can, row by row otherwise. Every sink still sees the rows in order;
// only the interleaving across sinks changes.
//
//lint:alloc-ceiling
func (m MultiEmitter) EmitColumns(server int, cols *Columns, pos []int) {
	for _, e := range m {
		EmitColumns(e, server, cols, pos)
	}
}
