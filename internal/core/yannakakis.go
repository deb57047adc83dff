package core

import (
	"fmt"

	"repro/internal/hypergraph"
	"repro/internal/mpc"
	"repro/internal/primitives"
	"repro/internal/relation"
	"repro/internal/runtime"
)

// LoadInstance distributes every relation of the instance over the cluster
// (the model's initial state, charged as round 0).
//
//lint:load perP
func LoadInstance(c *mpc.Cluster, in *Instance) []*mpc.Dist {
	dists := make([]*mpc.Dist, len(in.Rels))
	for i, r := range in.Rels {
		dists[i] = mpc.FromRelation(c, r)
	}
	return dists
}

// FullReduce removes all dangling tuples with a full reducer over the join
// tree: one bottom-up and one top-down semi-join pass [34]. O(1) rounds,
// linear load. It panics on cyclic queries. Fully deterministic: the
// semi-joins sort, they do not hash, so no seed is taken.
//
//lint:load perP
//lint:rounds const
func FullReduce(in *Instance, dists []*mpc.Dist) []*mpc.Dist {
	tree, ok := in.Q.GYO()
	if !ok {
		panic("core: FullReduce on cyclic query")
	}
	out := make([]*mpc.Dist, len(dists))
	copy(out, dists)
	semi := func(x, d *mpc.Dist) *mpc.Dist {
		shared := x.Schema.Intersect(d.Schema)
		if len(shared) == 0 {
			return x
		}
		return primitives.SemiJoin(x, shared, d, shared)
	}
	// Bottom-up: parents shed tuples with no support below.
	for _, u := range tree.RemovalOrder {
		p := tree.Parent[u]
		if p < 0 {
			continue
		}
		out[p] = semi(out[p], out[u])
	}
	// Top-down: children shed tuples with no support above.
	for i := len(tree.RemovalOrder) - 1; i >= 0; i-- {
		u := tree.RemovalOrder[i]
		p := tree.Parent[u]
		if p < 0 {
			continue
		}
		out[u] = semi(out[u], out[p])
	}
	return out
}

// DefaultJoinOrder returns a join order along the join tree (BFS from the
// root), so every prefix of the order is connected whenever Q is.
func DefaultJoinOrder(q *hypergraph.Hypergraph) []int {
	tree, ok := q.GYO()
	if !ok {
		panic("core: DefaultJoinOrder on cyclic query")
	}
	var order []int
	queue := []int{tree.Root}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		order = append(order, u)
		queue = append(queue, tree.Children[u]...)
	}
	return order
}

// Yannakakis is the classical algorithm as an MPC program [2,25]: remove
// dangling tuples (linear load), then fold the relations pairwise with the
// output-optimal binary join, in the given order (a permutation of edge
// indices; nil means DefaultJoinOrder). Load O(IN/p + OUT/p): after
// reduction every intermediate result is part of a full join result, so
// intermediate sizes — and hence the inputs of later binary joins — can
// reach Θ(OUT). Section 4.1 shows this is inherent for fixed orders.
//
//lint:load perP trust after the full reduction every intermediate is output-bounded (Cor. 8): IN/p + OUT/p per join step
//lint:rounds const
func Yannakakis(c *mpc.Cluster, in *Instance, order []int, seed uint64, em mpc.Emitter) *mpc.Dist {
	if order == nil {
		order = DefaultJoinOrder(in.Q)
	}
	if len(order) != len(in.Rels) {
		panic(fmt.Sprintf("core: join order has %d entries for %d relations", len(order), len(in.Rels)))
	}
	dists := LoadInstance(c, in)
	dists = FullReduce(in, dists)
	// The last join writes its rows in the output schema's order, so the
	// emission below needs no projection and a materializing sink adopts
	// the join's parts instead of copying them.
	acc := dists[order[0]]
	for i := 1; i < len(order); i++ {
		layout := acc.Schema.Union(dists[order[i]].Schema)
		if i == len(order)-1 {
			layout = in.OutputSchema()
		}
		acc = binaryJoin(acc, dists[order[i]], layout, in.Ring, seed+uint64(7*i), nil)
	}
	EmitDist(acc, in.OutputSchema(), em)
	return acc
}

// emitSerialBelow is the result size under which EmitDist stays on the
// calling goroutine.
const emitSerialBelow = 1 << 12

// EmitDist projects d locally onto schema and reports every tuple to em
// (free, as emit() is in the model). em may be nil. Parts are handed over
// whole (mpc.EmitColumns): sinks with the column capability count or
// block-copy them, the rest see each row through one reused scratch tuple.
//
// When every sink in em is shard-safe — counting emitters, which fork
// per-server counters merged in server order, and per-partition sinks
// (ShardedEmitter, PerServerCounter), whose partition s is written only by
// the task owning server s — emission fans out across workers without any
// lock. Everything else takes the serial path. Both paths produce the same
// emitter state for every worker count.
func EmitDist(d *mpc.Dist, schema relation.Schema, em mpc.Emitter) {
	if em == nil {
		return
	}
	var pos []int // nil: the rows already have the emitted layout
	if !d.Schema.Equal(schema) {
		pos = d.Positions([]relation.Attr(schema))
	}
	if direct, forkers, ok := shardableSinks(em, len(d.Parts)); ok && d.Size() >= emitSerialBelow {
		locals := make([][]mpc.Emitter, len(d.Parts))
		runtime.Fork(len(d.Parts), func(s int) {
			sink := make(mpc.MultiEmitter, 0, len(direct)+len(forkers))
			sink = append(sink, direct...)
			ls := make([]mpc.Emitter, len(forkers))
			for i, f := range forkers {
				ls[i] = f.ForkWorker()
				sink = append(sink, ls[i])
			}
			sink.EmitColumns(s, &d.Parts[s], pos)
			locals[s] = ls
		})
		for i, f := range forkers {
			workers := make([]mpc.Emitter, len(d.Parts))
			for s := range locals {
				workers[s] = locals[s][i]
			}
			f.MergeWorkers(workers)
		}
		return
	}
	for s := range d.Parts {
		mpc.EmitColumns(em, s, &d.Parts[s], pos)
	}
}

// shardableSinks flattens em and reports whether every sink supports the
// parallel per-server emission, by capability: mpc.ForkingSinks are
// returned for fork-and-merge, mpc.PartitionedSinks covering all parts are
// emitted into directly (lock-free under per-partition ownership).
// Anything else forces the serial path.
func shardableSinks(em mpc.Emitter, parts int) (direct []mpc.Emitter, forkers []mpc.ForkingSink, ok bool) {
	var walk func(e mpc.Emitter) bool
	walk = func(e mpc.Emitter) bool {
		if multi, isMulti := e.(mpc.MultiEmitter); isMulti {
			for _, sub := range multi {
				if !walk(sub) {
					return false
				}
			}
			return true
		}
		if ps, isPS := e.(mpc.PartitionedSink); isPS && ps.Partitioned(parts) {
			direct = append(direct, ps)
			return true
		}
		if f, isFork := e.(mpc.ForkingSink); isFork {
			forkers = append(forkers, f)
			return true
		}
		return false
	}
	if !walk(em) {
		return nil, nil, false
	}
	return direct, forkers, true
}
