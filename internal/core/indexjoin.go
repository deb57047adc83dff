package core

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/mpc"
	"repro/internal/relation"
	"repro/internal/runtime"
)

// joinStage is one level of the per-server index nested-loop join: the rows
// of part whose key columns keyPos equal the output row's values at keyOut
// (bound by an earlier stage) extend the output row with their columns src,
// written to the output positions dst. The first stage of a join is the
// probe side: every row of its part takes part, and it has no key.
type joinStage struct {
	part     *mpc.Columns
	keyPos   []int
	keyOut   []int
	src, dst []int
}

// partJoin is one join of a server's part: its stages, the order its probe
// rows are visited in (nil: source order), and the width of the row its
// stages bind, whose first columns are the output row.
type partJoin struct {
	stages []joinStage
	order  []int32
	width  int
}

// indexJoins is the one per-server join kernel, behind joinInto and the
// r-hierarchical joins: it appends to out, rows of the given width (the
// head of each bound row, copied straight), every combination of one row
// per stage in which each row matches the ones before it, join after join.
// A join's probe rows are visited in source order (or in its order), each
// later stage's matches in insertion order, innermost stage fastest — the
// order of the nested map-of-slices loops this kernel replaces.
// Annotations multiply left to right through ring.
//
// The kernel runs two loops over the same bindings. The count loop indexes
// the stages (mpc.RowIndex), probes each index once per binding, logs every
// chain head it looks up, in visiting order, in one log for all the joins,
// and counts the result rows. out grows once by that count, and the fill
// loop, visiting the same bindings in the same order, replays the log
// instead of hashing the keys again. A call allocates per stage, never per
// row.
//
// A plain call — every stage's annotation column lazy, and ring.Mul(1, 1)
// = 1, as in the count and Boolean rings — has every product 1: the fill
// multiplies nothing and writes each row straight into the window
// mpc.Columns.Extend reserved, annotated 1, so a lazy output column stays
// lazy. Any other call multiplies through ring and appends each row with
// its product (AppendRow), which materializes the output column at the
// first product ≠ 1.
//
//lint:alloc-ceiling
func indexJoins(out *mpc.Columns, width int, joins []partJoin, ring relation.Semiring) {
	// Every probe row looks up its join's first later stage once: the log
	// holds at least one head per probe row.
	probes, later, bind := 0, 0, 0
	plain := ring.Mul(1, 1) == 1
	for _, jn := range joins {
		if !slices.ContainsFunc(jn.stages, emptyStage) {
			probes += jn.stages[0].part.Len()
		}
		later += len(jn.stages) - 1
		bind = max(bind, jn.width)
		for _, st := range jn.stages {
			plain = plain && !st.part.Annotated()
		}
	}
	if probes == 0 {
		return
	}
	log := headLogPool.Get()
	j := indexJoiner{heads: mpc.Resize(*log, probes)[:0], bind: make(relation.Tuple, bind), ring: ring, plain: plain, width: width}
	idx := make([]mpc.RowIndex, later)
	j.pass(joins, idx, false)
	if j.n > 0 {
		if plain {
			j.vals = out.Extend(width, j.n)
		} else {
			out.Reserve(width, j.n)
			j.out = out
		}
		j.pass(joins, idx, true)
	}
	for k := range idx {
		idx[k].Release()
	}
	*log = j.heads // the pool keeps the capacity the log grew to
	headLogPool.Put(log)
}

// emptyStage reports whether st has no rows, so its join matches nothing.
func emptyStage(st joinStage) bool { return st.part.Len() == 0 }

// headLogPool recycles indexJoins' head logs.
var headLogPool mpc.Pool[[]int32]

// indexJoiner is indexJoins' state: the join running and its stage
// indexes, the head log, the bound row, the ring, and where the fill loop
// writes.
type indexJoiner struct {
	probe  joinStage
	stages []joinStage // the stages after the probe
	idx    []mpc.RowIndex
	heads  []int32 // every First the count loop made, in visiting order (−1 for none)
	next   int     // the fill loop's read position in heads
	bind   relation.Tuple
	ring   relation.Semiring
	plain  bool             // every product is 1: nothing is multiplied
	n      int              // result rows, counted by the count loop
	width  int              // the output row width: each bound row's head is written
	vals   []relation.Value // plain: the window Extend reserved …
	cur    int              // … and the fill loop's write position in it
	out    *mpc.Columns     // otherwise: the part appended to
}

// pass runs the count loop (or the fill loop) of every join that can
// match, in order, each over the next window of idx; the count loop builds
// the indexes the fill loop reuses.
//
//lint:alloc-ceiling
func (j *indexJoiner) pass(joins []partJoin, idx []mpc.RowIndex, fill bool) {
	for _, jn := range joins {
		j.probe, j.stages, j.idx = jn.stages[0], jn.stages[1:], idx[:len(jn.stages)-1]
		idx = idx[len(j.idx):]
		if slices.ContainsFunc(jn.stages, emptyStage) {
			continue
		}
		probe := j.probe.part
		if len(j.stages) == 0 && !fill {
			j.n += probe.Len() // a copy: every probe row is a result row
			continue
		}
		for k := 0; k < len(j.stages) && !fill; k++ {
			j.idx[k] = mpc.IndexRows(j.stages[k].part, j.stages[k].keyPos)
		}
		for i := 0; i < probe.Len(); i++ {
			r := i
			if jn.order != nil {
				r = int(jn.order[i])
			}
			j.bindRow(&j.probe, r)
			switch {
			case !fill:
				j.count(0)
			case len(j.stages) > 0:
				j.fill(0, probe.Annot(r))
			case j.plain:
				copy(j.vals[j.cur:j.cur+j.width], j.bind)
				j.cur += j.width
			default:
				copy(j.out.AppendRow(probe.Annot(r)), j.bind)
			}
		}
	}
}

// bindRow writes row r of st's part into the bound row.
func (j *indexJoiner) bindRow(st *joinStage, r int) {
	row := st.part.Tuple(r)
	for c, p := range st.src {
		j.bind[st.dst[c]] = row[p]
	}
}

// count counts the result rows that extend the bound row through stages
// k…, logging the chain head it looks up at every binding. The innermost
// stage needs only its chain's length. Local work only: no round, no load.
//
//lint:alloc-ceiling
//lint:load zero
//lint:rounds zero
func (j *indexJoiner) count(k int) {
	st, ix := &j.stages[k], &j.idx[k]
	r := ix.First(j.bind, st.keyOut)
	if len(j.heads) == cap(j.heads) {
		// Double: append grows a long slice by a quarter at a time.
		j.heads = slices.Grow(j.heads, len(j.heads))
	}
	j.heads = append(j.heads, int32(r))
	if k == len(j.stages)-1 {
		for ; r >= 0; r = ix.Next(r) {
			j.n++
		}
		return
	}
	for ; r >= 0; r = ix.Next(r) {
		j.bindRow(st, r)
		j.count(k + 1)
	}
}

// fill writes the result rows that extend the bound row through stages
// k…, in the count loop's order, replaying its head log; annot is the
// bound rows' product (unused when plain). The innermost stage writes its
// rows in one flat loop. Local work only: no round, no load.
//
//lint:alloc-ceiling
//lint:load zero
//lint:rounds zero
func (j *indexJoiner) fill(k int, annot int64) {
	st, ix := &j.stages[k], &j.idx[k]
	r := int(j.heads[j.next])
	j.next++
	if k < len(j.stages)-1 {
		for ; r >= 0; r = ix.Next(r) {
			j.bindRow(st, r)
			a := annot
			if !j.plain {
				a = j.ring.Mul(annot, st.part.Annot(r))
			}
			j.fill(k+1, a)
		}
		return
	}
	if !j.plain {
		for ; r >= 0; r = ix.Next(r) {
			j.bindRow(st, r)
			copy(j.out.AppendRow(j.ring.Mul(annot, st.part.Annot(r))), j.bind)
		}
		return
	}
	vals, cur, w := j.vals, j.cur, j.width
	for ; r >= 0; r = ix.Next(r) {
		j.bindRow(st, r)
		copy(vals[cur:cur+w], j.bind)
		cur += w
	}
	j.cur = cur
}

// pendingJoin is a routed join whose local kernel has not run yet: server
// s joins the s-th parts of inputs through stages, which bind schema's
// columns, visiting its probe rows stably sorted by the columns keyIn
// (none: in source order). A join without inputs has no rows.
type pendingJoin struct {
	schema relation.Schema
	inputs []*mpc.Dist
	stages []joinStage
	keyIn  []int
}

// copyJoin is d as a one-stage join: every row of d, in order.
func copyJoin(d *mpc.Dist) pendingJoin {
	all := identityPos(len(d.Schema))
	return pendingJoin{schema: d.Schema, inputs: []*mpc.Dist{d}, stages: []joinStage{{src: all, dst: all}}}
}

// joinInto runs the local kernels of joins into one result laid out as
// layout (nil: the first join's schema), every column of which each join
// must bind: part s holds join 1's rows of server s, then join 2's, … —
// mpc.Concat's source-major order — counted together and reserved once
// (indexJoins), so every result row is written once, where it lives. A
// join binds layout's columns first and those layout drops (acyclic's
// dummy attributes) last, so a result row is the bound row's head. Servers
// run in parallel, each writing only its own part. Local work only: no
// round, no load.
//
//lint:alloc-ceiling
func joinInto(c *mpc.Cluster, layout relation.Schema, ring relation.Semiring, joins ...pendingJoin) *mpc.Dist {
	if layout == nil {
		layout = joins[0].schema
	}
	var laid []pendingJoin
	nst := 0
	for _, j := range joins {
		if j.inputs != nil {
			laid = append(laid, j.boundAs(layout))
			nst += len(j.stages)
		}
	}
	res := mpc.NewDist(c, layout)
	// Every server's joins and stages, allocated once for all servers.
	local, stages := make([]partJoin, c.P*len(laid)), make([]joinStage, c.P*nst)
	runtime.Fork(c.P, func(s int) {
		mine, st := local[s*len(laid):(s+1)*len(laid)], stages[s*nst:]
		for i, j := range laid {
			for k, stage := range j.stages {
				stage.part = &j.inputs[k].Parts[s]
				st[k] = stage
			}
			mine[i] = partJoin{st[:len(j.stages):len(j.stages)], keyOrder(st[0].part, j.keyIn), len(j.schema)}
			st = st[len(j.stages):]
		}
		indexJoins(&res.Parts[s], len(layout), mine, ring)
	})
	return res
}

// boundAs is j binding layout's columns first, then the rest of its own.
func (j pendingJoin) boundAs(layout relation.Schema) pendingJoin {
	bound := append(slices.Clone(layout), j.schema.Minus(layout)...)
	if bound.Equal(j.schema) {
		return j
	} else if len(bound) != len(j.schema) {
		panic(fmt.Sprintf("core: a join over %v does not bind all of %v", j.schema, layout))
	}
	to := bound.Positions(j.schema) // j's column i is bound's to[i]
	remap := func(pos []int) (out []int) {
		for _, p := range pos {
			out = append(out, to[p])
		}
		return out
	}
	laid := pendingJoin{bound, j.inputs, slices.Clone(j.stages), j.keyIn}
	for k := range laid.stages {
		st := &laid.stages[k]
		st.keyOut, st.dst = remap(st.keyOut), remap(st.dst)
	}
	return laid
}

// keyOrder returns part's rows stably sorted by the columns keyIn, or nil
// (source order) when there are none.
func keyOrder(part *mpc.Columns, keyIn []int) []int32 {
	if len(keyIn) == 0 {
		return nil
	}
	order := make([]int32, part.Len())
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortStableFunc(order, func(a, b int32) int {
		ta, tb := part.Tuple(int(a)), part.Tuple(int(b))
		for _, p := range keyIn {
			if d := cmp.Compare(ta[p], tb[p]); d != 0 {
				return d
			}
		}
		return 0
	})
	return order
}

// identityPos returns the positions 0 … n−1.
func identityPos(n int) []int {
	pos := make([]int, n)
	for i := range pos {
		pos[i] = i
	}
	return pos
}
