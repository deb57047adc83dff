package mpc

import (
	"repro/internal/relation"
	"repro/internal/runtime"
)

// Item is a tuple with its semiring annotation (1 for plain joins). Parts
// store items as flat fixed-width buffers (see Columns); Item remains the
// row view handed to callbacks and returned by accessors — its tuple is a
// window into the part's buffer, not a copy.
type Item struct {
	T relation.Tuple
	A int64
}

// Dist is a distributed collection of items over a cluster: Parts[s] holds
// the items currently residing on server s, stored as flat fixed-width
// columns. Every routing operation on a Dist is one communication round and
// is charged to the cluster.
type Dist struct {
	C      *Cluster
	Schema relation.Schema
	Parts  []Columns
}

// NewDist returns an empty distributed collection.
func NewDist(c *Cluster, schema relation.Schema) *Dist {
	return &Dist{C: c, Schema: schema, Parts: make([]Columns, c.P)}
}

// hasAnnots reports whether any part carries a materialized annotation
// column — the exchange's one-shot decision for its output layout.
func (d *Dist) hasAnnots() bool {
	for s := range d.Parts {
		if d.Parts[s].hasAnnots() {
			return true
		}
	}
	return false
}

// partsWidth returns the tuple width of the collection's rows: the width
// adopted by the first non-empty part, falling back to the schema's arity
// when every part is empty.
func (d *Dist) partsWidth() int {
	for s := range d.Parts {
		if d.Parts[s].Len() > 0 {
			return d.Parts[s].Width()
		}
	}
	return len(d.Schema)
}

// roundRobinParts pre-sizes parts for n width-w items spread round-robin
// over c and charges round 0 per server — the shared batched-placement plan
// of FromRelation and MoveTo: one exact-size allocation per column per
// server, no per-tuple charging and no intermediate Item structs.
func roundRobinParts(c *Cluster, n, w int, withAnnots bool) []Columns {
	parts := make([]Columns, c.P)
	for s := 0; s < c.P && s < n; s++ {
		cnt := (n - s + c.P - 1) / c.P
		parts[s].resize(w, cnt, withAnnots)
		c.input(s, cnt)
	}
	return parts
}

// FromRelation distributes r round-robin over the cluster, charging the
// initial placement to round 0 (the model's starting state: IN/p each).
// The placement is flat: each server's value buffer is filled with one
// strided pass over the relation, and the annotation column exists only
// when the relation is annotated.
//
//lint:load perP trust round-robin placement puts exactly ceil(n/p) tuples on each server
func FromRelation(c *Cluster, r *relation.Relation) *Dist {
	d := NewDist(c, r.Schema)
	n := len(r.Tuples)
	w := len(r.Schema)
	if n > 0 {
		w = len(r.Tuples[0])
	}
	withAnnots := r.Annots != nil
	d.Parts = roundRobinParts(c, n, w, withAnnots)
	for s := 0; s < c.P && s < n; s++ {
		part := &d.Parts[s]
		for j := 0; j < part.rows; j++ {
			copy(part.values[j*w:(j+1)*w], r.Tuples[s+j*c.P])
		}
		if withAnnots {
			for j := range part.annots {
				part.annots[j] = r.Annots[s+j*c.P]
			}
		}
	}
	return d
}

// Size returns the total number of items across servers.
func (d *Dist) Size() int {
	n := 0
	for s := range d.Parts {
		n += d.Parts[s].Len()
	}
	return n
}

// All returns every item (server order). Used by tests.
func (d *Dist) All() []Item {
	out := make([]Item, 0, d.Size())
	for s := range d.Parts {
		part := &d.Parts[s]
		for i := 0; i < part.Len(); i++ {
			out = append(out, part.Item(i))
		}
	}
	return out
}

// ToRelation collects the distributed items into a relation (no load is
// charged: this is an inspection helper, not an MPC operation) with the
// annotation column always present, for callers that index Annots.
func (d *Dist) ToRelation(name string) *relation.Relation {
	return d.relation(name, true)
}

// Rel is the collection as the relation "out", for results: Annots stays
// nil (every annotation 1, as Relation.Annot reads it) unless some part
// materialized an annotation column. Read-only, like ToRelation's.
func (d *Dist) Rel() *relation.Relation {
	return d.relation("out", d.hasAnnots())
}

// relation is the one parts → relation conversion: part-major, row order
// kept inside each part. The tuples are windows into the parts' flat
// buffers, not copies.
func (d *Dist) relation(name string, withAnnots bool) *relation.Relation {
	r := relation.New(name, d.Schema)
	n := d.Size()
	r.Tuples = make([]relation.Tuple, 0, n)
	if withAnnots {
		r.Annots = make([]int64, 0, n)
	}
	for s := range d.Parts {
		part := &d.Parts[s]
		for i := 0; i < part.Len(); i++ {
			r.Tuples = append(r.Tuples, part.Tuple(i))
			if withAnnots {
				r.Annots = append(r.Annots, part.Annot(i))
			}
		}
	}
	return r
}

// Positions resolves attrs against the schema.
func (d *Dist) Positions(attrs []relation.Attr) []int {
	return d.Schema.Positions(attrs)
}

// ShuffleByKey hashes each item's projection onto pos and routes it to
// hash % P. Salt decorrelates successive shuffles of the same keys. The
// router's hash fast path computes destinations straight off the flat
// value buffer (HashTupleAt), so a hash exchange allocates nothing per
// item and stores at most one destination byte per row.
//
//lint:load linear trust hash routing concentrates duplicate keys: a heavy key lands whole on one server, so only callers can argue balance
//lint:rounds const
func (d *Dist) ShuffleByKey(pos []int, salt uint64) *Dist {
	return d.route(d.Schema, router{hashPos: pos, hashSalt: salt})
}

// ShuffleByAttrs hashes each item's projection onto attrs (resolved against
// the schema) and routes it to hash % P.
//
//lint:load linear
//lint:rounds const
func (d *Dist) ShuffleByAttrs(attrs []relation.Attr, salt uint64) *Dist {
	return d.ShuffleByKey(d.Positions(attrs), salt)
}

// ReplicateAppend routes each item to every server f appends to dst (used
// by HyperCube-style plans where a tuple is copied along grid dimensions).
// dst is the exchange's per-task scratch, empty on entry: f appends the
// item's destinations and returns the extended list, so routing allocates
// per task, not per row. f must be safe for concurrent calls.
//
//lint:load linear trust the replication function is caller-supplied; nothing bounds how many items reach one server
//lint:rounds const
func (d *Dist) ReplicateAppend(f func(it Item, dst []int) []int) *Dist {
	return d.route(d.Schema, router{many: func(_ int, it Item, dst []int) []int { return f(it, dst) }})
}

// ReplicateBy is ReplicateAppend for routing functions that return a list
// of their own (one slice per row unless f reuses one).
//
//lint:load linear
//lint:rounds const
func (d *Dist) ReplicateBy(f func(it Item) []int) *Dist {
	return d.ReplicateAppend(func(it Item, dst []int) []int { return append(dst, f(it)...) })
}

// Broadcast copies every item to all servers: one round, load = Size() per
// server. Only used for provably small collections (boundaries, statistics).
//
//lint:load linear trust every server receives the whole collection; callers broadcast only provably small ones
//lint:rounds const
func (d *Dist) Broadcast() *Dist {
	all := make([]int, d.C.P)
	for i := range all {
		all[i] = i
	}
	return d.route(d.Schema, router{many: func(_ int, _ Item, dst []int) []int { return append(dst, all...) }})
}

// GatherTo ships everything to a single server.
//
//lint:load linear trust one server receives the whole collection by design
//lint:rounds const
func (d *Dist) GatherTo(s int) *Dist {
	return d.route(d.Schema, router{many: func(_ int, _ Item, dst []int) []int { return append(dst, s) }})
}

// MapLocal rewrites every item locally (no communication, no new round).
// f returns the replacement items for one input item; it must be safe for
// concurrent calls — parts are transformed in parallel, one task per part.
func (d *Dist) MapLocal(schema relation.Schema, f func(s int, it Item) []Item) *Dist {
	out := &Dist{C: d.C, Schema: schema, Parts: make([]Columns, d.C.P)}
	runtime.Fork(len(d.Parts), func(s int) {
		part := &d.Parts[s]
		n := part.Len()
		if n == 0 {
			return
		}
		var res Columns
		for i := 0; i < n; i++ {
			for _, it := range f(s, part.Item(i)) {
				res.AppendItem(it)
			}
		}
		out.Parts[s] = res
	})
	return out
}

// MapAnnots returns d with row i annotated f(Annot(i)), or 1 when f is nil;
// local, free. The result is a view: every part shares d's value buffer
// (parts are written only while they are built) and only the annotation
// column is new — and like every annotation column it stays absent while
// the annotations are 1, so the all-ones view allocates nothing per part.
func (d *Dist) MapAnnots(f func(a int64) int64) *Dist {
	out := &Dist{C: d.C, Schema: d.Schema, Parts: make([]Columns, len(d.Parts))}
	for s := range d.Parts {
		src := &d.Parts[s]
		v := src.view()
		v.annots = nil
		for i := 0; f != nil && i < src.rows; i++ {
			a := f(src.Annot(i))
			if a != 1 && v.annots == nil {
				v.annots = make([]int64, src.rows)
				for j := 0; j < i; j++ {
					v.annots[j] = 1
				}
			}
			if v.annots != nil {
				v.annots[i] = a
			}
		}
		out.Parts[s] = v
	}
	return out
}

// Project keeps the columns of schema, in schema's order; local, free. It is
// Concat of one source: a non-empty collection already in schema's layout
// is returned unchanged.
func (d *Dist) Project(schema relation.Schema) *Dist {
	return Concat(schema, d)
}

// FilterLocal keeps items satisfying pred; local, free. pred must be safe
// for concurrent calls — parts are filtered in parallel, one task per part.
func (d *Dist) FilterLocal(pred func(it Item) bool) *Dist {
	out := &Dist{C: d.C, Schema: d.Schema, Parts: make([]Columns, d.C.P)}
	runtime.Fork(len(d.Parts), func(s int) {
		part := &d.Parts[s]
		var res Columns
		for i := 0; i < part.Len(); i++ {
			if it := part.Item(i); pred(it) {
				res.AppendItem(it)
			}
		}
		out.Parts[s] = res
	})
	return out
}

// Concat unions collections of one cluster onto schema; local, free. Part s
// is part s of every source, source-major and in order, gathered onto
// schema's columns (others dropped) into one exactly-sized buffer, one task
// per part; annotations stay lazy unless a source's are not. Empty sources
// are skipped whatever their schema; a non-empty one must hold all of
// schema, and is returned as is when it is the only one, in schema's layout.
//
//lint:alloc-ceiling
func Concat(schema relation.Schema, ds ...*Dist) *Dist {
	if len(ds) == 0 {
		panic("mpc: Concat of nothing")
	}
	n, last := 0, ds[0]
	for _, d := range ds {
		if d.C != ds[0].C {
			panic("mpc: Concat across clusters")
		}
		if d.Size() > 0 {
			n, last = n+1, d
		}
	}
	if n == 1 && last.Schema.Equal(schema) {
		return last
	}
	srcs, pos := make([]*Dist, 0, n), make([][]int, n) // pos[i] nil: srcs[i] is in schema's layout
	for _, d := range ds {
		if d.Size() > 0 {
			if !d.Schema.Equal(schema) {
				pos[len(srcs)] = d.Positions(schema)
			}
			srcs = append(srcs, d)
		}
	}
	out := NewDist(ds[0].C, schema)
	runtime.Fork(len(out.Parts), func(s int) {
		rows := 0
		for _, d := range srcs {
			rows += d.Parts[s].Len()
		}
		part := &out.Parts[s]
		part.Reserve(len(schema), rows)
		for i, d := range srcs {
			part.AppendProjected(&d.Parts[s], pos[i])
		}
	})
	return out
}

// MoveTo re-registers the collection on another cluster, charging the new
// cluster's round 0 with the items as its initial input. Used when handing
// a sub-problem to a sub-cluster; items are spread round-robin through the
// same batched flat placement as FromRelation.
//
//lint:load perP trust round-robin placement puts exactly ceil(n/p) tuples on each sub-cluster server
func (d *Dist) MoveTo(sub *Cluster) *Dist {
	withAnnots := d.hasAnnots()
	w := d.partsWidth()
	out := &Dist{C: sub, Schema: d.Schema, Parts: roundRobinParts(sub, d.Size(), w, withAnnots)}
	i := 0
	for s := range d.Parts {
		part := &d.Parts[s]
		for j := 0; j < part.Len(); j++ {
			dst := &out.Parts[i%sub.P]
			copy(dst.values[(i/sub.P)*w:(i/sub.P+1)*w], part.values[j*w:(j+1)*w])
			if withAnnots {
				dst.annots[i/sub.P] = part.Annot(j)
			}
			i++
		}
	}
	return out
}
