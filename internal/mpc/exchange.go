package mpc

import (
	"fmt"

	"repro/internal/relation"
	"repro/internal/runtime"
)

// The batched exchange: every routing operation on a Dist — shuffles,
// replication, broadcast, gather — runs as a two-phase plan/scatter
// protocol instead of a tuple-at-a-time append loop.
//
//  1. Plan (count). The source parts are cut into contiguous spans, one
//     per worker task. Each task walks its span once, resolves every
//     item's destination list exactly once, and records the flattened
//     destinations in (source, item, fan-out) order, the per-item fan-out
//     (elided entirely while the span is uniformly fan-out 1), and a dense
//     per-destination item count. No output memory is touched.
//  2. Scatter. The coordinator sums the per-task counts into exact
//     per-destination totals, sizes every destination part's flat buffer
//     once at exact capacity — the annotation column only when some source
//     part carries one — and derives each task's first write offset per
//     destination (prefix sums in task order). Tasks then re-walk their
//     spans and write rows into disjoint, pre-sized buffer windows — no
//     locks, no growth reallocation. Runs of consecutive items bound for
//     the same destination (gathers, sub-cluster hand-offs, skew clusters)
//     move as contiguous block copies of the flat value buffer. Once the
//     tasks have finished, the coordinator books the plan's
//     per-destination totals to the open round (Cluster.bookExchange).
//
// Hash shuffles — the hottest exchange in every algorithm — take a fast
// path: the router carries the key positions and salt instead of a
// closure, the counting pass hashes rows straight out of the flat buffer,
// and the recorded destination is one byte per row (every cluster in the
// repository has ≤ 256 servers; larger clusters recompute the hash in the
// scatter). The destination list for a hash shuffle is therefore a quarter
// of the generic plan's footprint and the per-row scatter is a short
// contiguous value copy.
//
// All per-task scratch (destination lists, fan-outs, counts, offsets,
// cursors) is recycled through a pool: a steady-state exchange allocates
// the output columns and nothing else.
//
// The output is byte-identical to the serial tuple-at-a-time loop for
// every worker count: spans are contiguous in source order and offsets are
// prefix sums in span order, so destination parts hold items in exactly
// the serial (source, item, fan-out) order. runtime.SetParallelism(1) is
// the reference execution.
//
// The router callbacks must be safe for concurrent calls (pure functions
// of their arguments); every one in this repository is.

// exchangeSerialBelow is the item count under which an exchange skips
// multi-task planning: the plan is identical, only the task count changes,
// and the output is byte-identical either way.
const exchangeSerialBelow = 1 << 12

// router resolves an item's destinations. Exactly one strategy is set:
// hash shuffles carry the key positions and salt (hashPos non-nil, the
// flat fast path); every other operation uses many, which appends the
// item's destinations to a per-task scratch list the counting pass reuses
// for every row (a plan of fan-out 1 throughout, such as a gather, keeps
// one int32 per row and no fan-out list).
type router struct {
	many     func(s int, it Item, dst []int) []int
	hashPos  []int // non-nil ⇒ destination is HashTupleAt(row, hashPos, hashSalt) % P
	hashSalt uint64
}

// ExchangeStats counts the work done by the batched exchange on one
// cluster. All values are deterministic: they depend on the routed data
// only, never on the worker count.
type ExchangeStats struct {
	// Exchanges is the number of routed rounds executed.
	Exchanges int
	// Tuples is the total number of items delivered across all exchanges
	// (a broadcast of n items to p servers counts n·p).
	Tuples int64
	// ActiveDests sums, over exchanges, the number of servers that
	// received at least one item.
	ActiveDests int64
}

// span is a contiguous run of items owned by one task, in global
// (source-part, item) order: items [loOff:] of part lo, parts lo+1…hi−2 in
// full, and items [:hiOff] of part hi−1 (all of one part when lo == hi−1).
// Cuts land at item granularity, not part granularity, so a skewed
// distribution concentrated in one part still fans out across tasks.
type span struct {
	lo, hi       int // source parts [lo, hi)
	loOff, hiOff int // item offsets into parts lo and hi−1
}

// each walks the span's rows, handing fn each covered source index with
// its covered row range, in order.
func (sp span) each(parts []Columns, fn func(s int, cols *Columns, lo, hi int)) {
	for s := sp.lo; s < sp.hi; s++ {
		cols := &parts[s]
		start, end := 0, cols.Len()
		if s == sp.lo {
			start = sp.loOff
		}
		if s == sp.hi-1 {
			end = sp.hiOff
		}
		if start < end {
			fn(s, cols, start, end)
		}
	}
}

// exchangePlan is the counting pass of one exchange.
type exchangePlan struct {
	p      int
	spans  []span
	dests  [][]int32 // per task: flat destinations in (source, item, fan-out) order; nil on the hash path
	hdests [][]byte  // per task: one destination byte per row (hash fast path, P ≤ 256)
	fans   [][]int32 // per task: destinations per item, in (source, item) order; nil when uniformly 1
	counts [][]int32 // per task: dense per-destination item counts, len p
	totals []int     // per destination: Σ over tasks
	bases  [][]int32 // per task: first write offset per destination
}

// planSpans cuts the source items into at most tasks contiguous spans of
// near-equal size (the first total%tasks spans carry one extra item).
// Spans partition the items in global (source, item) order, so the
// scatter's concatenation order — and therefore the output — is the same
// for every task count.
func planSpans(parts []Columns, tasks int) []span {
	total := 0
	for s := range parts {
		total += parts[s].Len()
	}
	if tasks > total {
		tasks = total
	}
	if tasks < 1 {
		tasks = 1
	}
	if total == 0 {
		return []span{{lo: 0, hi: len(parts)}}
	}
	per, rem := total/tasks, total%tasks
	spans := make([]span, 0, tasks)
	s, off := 0, 0
	for w := 0; w < tasks; w++ {
		want := per
		if w < rem {
			want++
		}
		sp := span{lo: s, loOff: off}
		for want > 0 {
			avail := parts[s].Len() - off
			if avail == 0 {
				s, off = s+1, 0
				continue
			}
			take := want
			if take > avail {
				take = avail
			}
			off += take
			want -= take
		}
		sp.hi, sp.hiOff = s+1, off
		spans = append(spans, sp)
		if off == parts[s].Len() {
			s, off = s+1, 0
		}
	}
	return spans
}

// newExchangePlan runs the counting pass over d with the given task count.
//
//lint:alloc-ceiling
func newExchangePlan(d *Dist, rt router, tasks int) *exchangePlan {
	p := d.C.P
	plan := &exchangePlan{p: p, spans: planSpans(d.Parts, tasks)}
	n := len(plan.spans)
	if rt.hashPos != nil {
		plan.hdests = make([][]byte, n)
		plan.counts = make([][]int32, n)
		runtime.Fork(n, func(w int) {
			plan.hashCount(d, rt, w)
		})
		return plan
	}
	plan.dests = make([][]int32, n)
	plan.fans = make([][]int32, n)
	plan.counts = make([][]int32, n)
	runtime.Fork(n, func(w int) {
		sp := plan.spans[w]
		cnt := getInt32Zero(p)
		items := 0
		sp.each(d.Parts, func(_ int, _ *Columns, lo, hi int) { items += hi - lo })
		flat := getInt32Cap(items) // fan-out is 1 in the common case
		var fan []int32            // lazily materialized on the first fan-out ≠ 1
		seen := 0
		var ts []int // the task's destination scratch, reused across rows
		sp.each(d.Parts, func(s int, cols *Columns, lo, hi int) {
			for i := lo; i < hi; i++ {
				ts = rt.many(s, cols.Item(i), ts[:0])
				for _, t := range ts {
					if t < 0 || t >= p {
						panic(fmt.Sprintf("mpc: route to invalid server %d", t))
					}
					flat = append(flat, int32(t))
					cnt[t]++
				}
				if fan == nil && len(ts) != 1 {
					fan = getInt32Cap(items)
					for k := 0; k < seen; k++ {
						fan = append(fan, 1)
					}
				}
				if fan != nil {
					fan = append(fan, int32(len(ts)))
				}
				seen++
			}
		})
		plan.dests[w] = flat
		plan.fans[w] = fan
		plan.counts[w] = cnt
	})
	return plan
}

// hashCount is task w's counting pass on the hash fast path: destinations
// come straight from the flat value buffer and are recorded as one byte
// per row when they fit (P ≤ 256); otherwise only the counts are kept and
// the scatter recomputes the hash.
//
//lint:alloc-ceiling
func (plan *exchangePlan) hashCount(d *Dist, rt router, w int) {
	p := plan.p
	sp := plan.spans[w]
	cnt := getInt32Zero(p)
	var hd []byte
	if p <= 256 {
		items := 0
		sp.each(d.Parts, func(_ int, _ *Columns, lo, hi int) { items += hi - lo })
		hd = getByteCap(items)
	}
	sp.each(d.Parts, func(_ int, cols *Columns, lo, hi int) {
		for i := lo; i < hi; i++ {
			t := int(HashTupleAt(cols.Tuple(i), rt.hashPos, rt.hashSalt) % uint64(p))
			cnt[t]++
			if hd != nil {
				hd = append(hd, byte(t))
			}
		}
	})
	plan.hdests[w] = hd
	plan.counts[w] = cnt
}

// alloc sums the per-task counts into exact destination capacities, sizes
// out's flat buffers once at the source width, and derives each task's
// write offsets. The output carries annotation columns only when some
// source part does.
//
//lint:alloc-ceiling
func (plan *exchangePlan) alloc(d, out *Dist) {
	withAnnots := d.hasAnnots()
	width := d.partsWidth()
	plan.totals = make([]int, plan.p)
	plan.bases = make([][]int32, len(plan.spans))
	for w := range plan.spans {
		base := getInt32Zero(plan.p)
		for t, n := range plan.counts[w] {
			base[t] = int32(plan.totals[t])
			plan.totals[t] += int(n)
		}
		plan.bases[w] = base
	}
	for t, n := range plan.totals {
		if n > 0 {
			out.Parts[t].resize(width, n, withAnnots)
		}
	}
}

// scatter fans the items out into out's pre-sized buffer windows. Task w
// writes the half-open offset ranges [bases[w][t], bases[w][t]+counts[w][t])
// — disjoint across tasks by construction — moving runs of same-destination
// items as contiguous block copies of the value buffer.
//
//lint:alloc-ceiling
func (plan *exchangePlan) scatter(d, out *Dist, rt router) {
	runtime.Fork(len(plan.spans), func(w int) {
		cursor := getInt32Zero(plan.p)
		copy(cursor, plan.bases[w])
		if rt.hashPos != nil {
			plan.hashScatter(d, out, rt, w, cursor)
		} else {
			plan.genericScatter(d, out, w, cursor)
		}
		putInt32(cursor)
	})
}

// hashScatter is task w's write pass on the hash fast path: each row's
// destination comes from the per-row byte list (or a hash recomputation
// when P > 256) and the row moves as one contiguous value copy.
//
//lint:alloc-ceiling
func (plan *exchangePlan) hashScatter(d, out *Dist, rt router, w int, cursor []int32) {
	p := plan.p
	sp := plan.spans[w]
	hd, hi0 := plan.hdests[w], 0
	sp.each(d.Parts, func(_ int, cols *Columns, lo, hi int) {
		vw := cols.width
		for i := lo; i < hi; i++ {
			row := cols.values[i*vw : i*vw+vw]
			var t int
			if hd != nil {
				t = int(hd[hi0])
				hi0++
			} else {
				t = int(HashTupleAt(relation.Tuple(row), rt.hashPos, rt.hashSalt) % uint64(p))
			}
			dst := &out.Parts[t]
			off := int(cursor[t])
			cursor[t]++
			copy(dst.values[off*vw:off*vw+vw], row)
			if dst.annots != nil {
				dst.annots[off] = cols.Annot(i)
			}
		}
	})
}

// genericScatter is task w's write pass for closure routers, moving runs
// of same-destination items as per-column block copies.
//
//lint:alloc-ceiling
func (plan *exchangePlan) genericScatter(d, out *Dist, w int, cursor []int32) {
	sp := plan.spans[w]
	flat, fan := plan.dests[w], plan.fans[w]
	di, fi := 0, 0
	sp.each(d.Parts, func(_ int, cols *Columns, lo, hi int) {
		if fan == nil {
			// Uniform fan-out 1: flat[k] is row (lo+k)'s destination.
			// Runs of equal destinations become block copies.
			i := lo
			for i < hi {
				t := flat[di]
				j, dj := i+1, di+1
				for j < hi && flat[dj] == t {
					j++
					dj++
				}
				out.Parts[t].copyAt(int(cursor[t]), cols, i, j)
				cursor[t] += int32(j - i)
				i, di = j, dj
			}
			return
		}
		for i := lo; i < hi; i++ {
			k := int(fan[fi])
			fi++
			t, a := cols.Tuple(i), cols.Annot(i)
			for j := 0; j < k; j++ {
				dst := flat[di]
				di++
				out.Parts[dst].setRow(int(cursor[dst]), t, a)
				cursor[dst]++
			}
		}
	})
}

// release returns the plan's pooled scratch. The plan must not be used
// afterwards.
func (plan *exchangePlan) release() {
	for w := range plan.spans {
		if plan.dests != nil {
			putInt32(plan.dests[w])
		}
		if plan.hdests != nil && plan.hdests[w] != nil {
			putByte(plan.hdests[w])
		}
		if plan.fans != nil && plan.fans[w] != nil {
			putInt32(plan.fans[w])
		}
		putInt32(plan.counts[w])
		if plan.bases != nil {
			putInt32(plan.bases[w])
		}
	}
	plan.dests, plan.hdests, plan.fans, plan.counts, plan.bases = nil, nil, nil, nil, nil
}

// route ships items to destination servers and charges one round through
// the batched exchange (see the protocol comment above).
//
//lint:rounds const
func (d *Dist) route(schema relation.Schema, rt router) *Dist {
	tasks := runtime.Parallelism()
	if d.Size() < exchangeSerialBelow {
		tasks = 1
	}
	return d.routeTasks(schema, rt, tasks)
}

// routeTasks is route with an explicit task count — the fuzz and parity
// tests use it to force multi-task plans below exchangeSerialBelow.
//
//lint:rounds const
func (d *Dist) routeTasks(schema relation.Schema, rt router, tasks int) *Dist {
	c := d.C
	out := &Dist{C: c, Schema: schema, Parts: make([]Columns, c.P)}
	c.newRound()

	plan := newExchangePlan(d, rt, tasks)
	plan.alloc(d, out)
	plan.scatter(d, out, rt)
	c.bookExchange(plan.totals)
	plan.release()
	return out
}
