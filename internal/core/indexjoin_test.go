package core

import (
	"math"
	"slices"
	"testing"

	"repro/internal/mpc"
	"repro/internal/relation"
	"repro/internal/runtime"
)

// refIndexJoin is the map-of-items local join the kernel replaced, kept as
// its parity reference: every stage after the probe is a map from encoded
// key to the stage's items in insertion order, every result row is a fresh
// tuple, and the output grows by Append. Same arguments and same row order
// as indexJoin.
func refIndexJoin(out *mpc.Columns, width int, stages []joinStage, order []int32, ring relation.Semiring) {
	probe, stages := stages[0], stages[1:]
	idx := make([]map[string][]mpc.Item, len(stages))
	for k, st := range stages {
		idx[k] = make(map[string][]mpc.Item)
		for i := 0; i < st.part.Len(); i++ {
			it := st.part.Item(i)
			key := relation.KeyAt(it.T, st.keyPos)
			idx[k][key] = append(idx[k][key], it)
		}
	}
	var extend func(k int, t relation.Tuple, annot int64)
	extend = func(k int, t relation.Tuple, annot int64) {
		if k == len(stages) {
			out.Append(t, annot)
			return
		}
		st := stages[k]
		for _, it := range idx[k][relation.KeyAt(t, st.keyOut)] {
			nt := t.Clone()
			for c, p := range st.src {
				nt[st.dst[c]] = it.T[p]
			}
			extend(k+1, nt, ring.Mul(annot, it.A))
		}
	}
	for i := 0; i < probe.part.Len(); i++ {
		r := i
		if order != nil {
			r = int(order[i])
		}
		t := make(relation.Tuple, width)
		for c, p := range probe.src {
			t[probe.dst[c]] = probe.part.Tuple(r)[p]
		}
		extend(0, t, probe.part.Annot(r))
	}
}

// indexJoin is indexJoins with one join whose bound row is the output row.
func indexJoin(out *mpc.Columns, width int, stages []joinStage, order []int32, ring relation.Semiring) {
	indexJoins(out, width, []partJoin{{stages, order, width}}, ring)
}

// fuzzPart builds n rows of the given width over a small domain (so keys
// repeat); materialized picks non-identity annotations, otherwise the
// annotation column stays lazy.
func fuzzPart(rng *mpc.Rng, n, width, dom int, materialized bool) *mpc.Columns {
	var c mpc.Columns
	c.Reserve(width, n)
	for i := 0; i < n; i++ {
		a := int64(1)
		if materialized {
			a = int64(rng.Intn(4))
		}
		row := c.AppendRow(a)
		for j := range row {
			row[j] = relation.Value(rng.Intn(dom) - dom/2)
		}
	}
	return &c
}

// dupRows appends to c copies of a few of its own rows, annotations
// included, so its keys repeat whatever the domain.
func dupRows(rng *mpc.Rng, c *mpc.Columns) *mpc.Columns {
	if n := c.Len(); n > 0 {
		for k := 0; k <= n/8; k++ {
			r := rng.Intn(n)
			c.Append(c.Tuple(r).Clone(), c.Annot(r))
		}
	}
	return c
}

// shiftPart moves every value of c out of fuzzPart's domain, so no key of
// c equals a key of any other part.
func shiftPart(c *mpc.Columns) {
	for i := 0; i < c.Len(); i++ {
		row := c.Tuple(i)
		for j := range row {
			row[j] += 1 << 20
		}
	}
}

// headSentinel is the row number dirtyHeadLogs leaves in pooled head logs:
// no part holds that many rows, so a replay that reads it panics.
const headSentinel = math.MaxInt32

// dirtyHeadLogs takes k head logs of capacity ≥ n from the pool at once,
// fills each one's whole capacity with headSentinel and returns them, so
// the next logs the kernel draws hold stale entries past their length.
func dirtyHeadLogs(n, k int) {
	if k == 0 {
		return
	}
	log := headLogPool.Get()
	defer headLogPool.Put(log)
	*log = mpc.Resize(*log, n)
	s := (*log)[:cap(*log)]
	for i := range s {
		s[i] = headSentinel
	}
	dirtyHeadLogs(n, k-1)
}

// triangleShare builds one server's parts of the Figure 6 triangle
// instance (gen.TriangleRandom's construction) as the HyperCube places
// them: A takes tau values, B and C side values each; R1(B,C) holds each
// pair with probability prob, R2(A,C) and R3(A,B) are complete; and of
// every attribute the server keeps the values ≡ 0 mod s — cell (0, 0, 0)
// of an s × s × s cube. The stages are Triangle's over the output row
// (A, B, C): R1 probes R3 by B, then R2 by (A, C). Each R1 row meets
// ⌈tau/s⌉ R3 rows, so the kernel looks up R2 ⌈tau/s⌉ times per probe row.
func triangleShare(rng *mpc.Rng, tau, side, s int, prob float64) []joinStage {
	var bc, ab, ac mpc.Columns
	for b := 0; b < side; b += s {
		for c := 0; c < side; c += s {
			if rng.Float64() < prob {
				bc.Append(relation.Tuple{relation.Value(b), relation.Value(c)}, 1)
			}
		}
	}
	for a := 0; a < tau; a += s {
		for v := 0; v < side; v += s {
			ab.Append(relation.Tuple{relation.Value(a), relation.Value(v)}, 1)
			ac.Append(relation.Tuple{relation.Value(a), relation.Value(v)}, 1)
		}
	}
	return []joinStage{
		{part: &bc, src: []int{0, 1}, dst: []int{1, 2}},
		{part: &ab, keyPos: []int{1}, keyOut: []int{1}, src: []int{0}, dst: []int{0}},
		{part: &ac, keyPos: []int{0, 1}, keyOut: []int{0, 2}},
	}
}

// perm returns a random permutation of [0, n): Fisher–Yates over
// rng.Intn, the draws the fuzz corpora replay.
func perm(rng *mpc.Rng, n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// pick returns k distinct values of [0, n) in random order.
func pick(rng *mpc.Rng, n, k int) []int { return perm(rng, n)[:k] }

// FuzzLocalJoinParity drives the kernel and the map-of-items reference
// over random shapes — tuple widths, key widths (zero included) and key
// positions on both sides, one to four stages after the probe (each keyed
// on columns the probe or an earlier stage bound), duplicate rows at every
// level, lazy and materialized annotation columns, empty sides, joins that
// match nothing (the kernel never runs its fill pass), explicit probe
// orders, two semirings, and head logs dirtied with sentinels before every
// call — and demands equal output columns in the same row order, also when
// appending to a part that already holds rows. Its multi-join arm cuts the
// probe rows into 2–3 joins over the same later stages and drives them into
// one part (indexJoins), which must equal the reference run over the
// chunks in turn. Its ring arm runs the same join on three servers at once
// (runtime.Fork at widths 1, 2 and 8, head logs dirtied), each into its
// own part — empty, or pre-filled with lazy or materialized annotations —
// and demands every part equal the reference's over the same pre-fill and
// materialize its annotation column exactly when the reference's does,
// which Equal alone does not see.
//
// flags: bit 0 the max-plus ring, bit 1 a materialized probe, bit 2 a
// probe order, bits 3–6 materialized stages, bit 7 dirty head logs.
// shape: 1 + shape%4 stages; bit 2 shifts one stage out of the domain;
// bit 3 pre-fills the ring arm's parts, bit 4 with annotations ≠ 1.
func FuzzLocalJoinParity(f *testing.F) {
	f.Add(uint64(1), uint16(40), uint16(40), uint8(3), uint8(0), uint8(0))
	f.Add(uint64(2), uint16(0), uint16(25), uint8(2), uint8(1), uint8(1))
	f.Add(uint64(3), uint16(25), uint16(0), uint8(5), uint8(2), uint8(0))
	f.Add(uint64(4), uint16(200), uint16(300), uint8(1), uint8(3), uint8(1))
	f.Add(uint64(5), uint16(64), uint16(64), uint8(9), uint8(7), uint8(1))
	f.Add(uint64(6), uint16(60), uint16(120), uint8(2), uint8(0xb8), uint8(3))
	f.Add(uint64(7), uint16(80), uint16(80), uint8(0), uint8(0x84), uint8(2))
	f.Add(uint64(8), uint16(50), uint16(90), uint8(3), uint8(0x80), uint8(7))
	f.Add(uint64(9), uint16(120), uint16(40), uint8(1), uint8(0xc1), uint8(6))
	f.Add(uint64(11), uint16(30), uint16(90), uint8(8), uint8(0x80), uint8(3))
	f.Add(uint64(12), uint16(60), uint16(60), uint8(3), uint8(0x80), uint8(0x09))
	f.Add(uint64(13), uint16(60), uint16(60), uint8(3), uint8(0x81), uint8(0x18))
	f.Add(uint64(14), uint16(70), uint16(50), uint8(4), uint8(0x88), uint8(0x19))
	f.Add(uint64(15), uint16(40), uint16(80), uint8(2), uint8(0x82), uint8(0x12))
	f.Add(uint64(16), uint16(60), uint16(60), uint8(3), uint8(0x80), uint8(0x19))
	f.Fuzz(func(t *testing.T, seed uint64, nProbe, nBuild uint16, dom, flags, shape uint8) {
		rng := mpc.NewRng(seed)
		d := int(dom)%12 + 1
		ring := relation.CountRing
		if flags&1 != 0 {
			ring = relation.MaxPlusRing
		}
		// Stage k holds nBuild%300 / 4^k rows (at least one past the
		// first), and the sizes shrink until a cross product of every
		// side — the result size when all keys are equal — stays small.
		sizes := []int{int(nProbe) % 300}
		for k := 0; k < 1+int(shape)%4; k++ {
			sizes = append(sizes, int(nBuild)%300>>(2*k)+min(k, 1))
		}
		for {
			prod, big := 1, 0
			for i, n := range sizes {
				prod *= max(n, 1)
				if n > sizes[big] {
					big = i
				}
			}
			if prod <= 1<<18 {
				break
			}
			sizes[big] /= 2
		}
		miss := -1 // the stage shifted out of the domain
		if shape&4 != 0 {
			miss = rng.Intn(len(sizes) - 1)
		}

		// The output row is the probe's columns, shuffled, then each later
		// stage's non-key columns.
		wp := 1 + rng.Intn(3)
		probe := joinStage{part: dupRows(rng, fuzzPart(rng, sizes[0], wp, d, flags&2 != 0)), src: pick(rng, wp, wp), dst: pick(rng, wp, wp)}
		var order []int32
		if flags&4 != 0 {
			for _, r := range perm(rng, probe.part.Len()) {
				order = append(order, int32(r))
			}
		}
		bound := wp
		stages := make([]joinStage, len(sizes)-1)
		for k := range stages {
			ws := 1 + rng.Intn(3)
			kw := rng.Intn(min(ws, bound) + 1)
			if k == miss {
				kw = max(kw, 1) // a keyless stage would match the shifted rows
			}
			cols := pick(rng, ws, ws)
			st := joinStage{
				part:   dupRows(rng, fuzzPart(rng, sizes[k+1], ws, d, flags&(8<<k) != 0)),
				keyPos: cols[:kw],
				keyOut: pick(rng, bound, kw),
				src:    cols[kw:],
			}
			if k == miss {
				shiftPart(st.part)
			}
			for range st.src {
				st.dst = append(st.dst, bound)
				bound++
			}
			stages[k] = st
		}

		stages = append([]joinStage{probe}, stages...)
		var got, want mpc.Columns
		for pass := 0; pass < 2; pass++ {
			before := want.Len()
			if flags&0x80 != 0 {
				dirtyHeadLogs(1<<12, 3)
			}
			indexJoin(&got, bound, stages, order, ring)
			refIndexJoin(&want, bound, stages, order, ring)
			if !got.Equal(&want) {
				t.Fatalf("pass %d: kernel output (%d rows) differs from the map-of-items reference (%d rows)",
					pass, got.Len(), want.Len())
			}
			if miss >= 0 && want.Len() != before {
				t.Fatalf("pass %d: stage %d shares no key with the rest, yet the reference joined %d rows", pass, miss+1, want.Len()-before)
			}
		}

		// The multi-join arm: the probe rows, in visiting order, cut into
		// 2–3 chunks (any of them possibly empty), each the probe of its own
		// join over the same later stages, all driven into one part on
		// dirtied head logs, must give the reference's rows over the chunks,
		// concatenated, row for row.
		chunks := make([]mpc.Columns, 2+rng.Intn(2))
		cuts := []int{0, rng.Intn(probe.part.Len() + 1), rng.Intn(probe.part.Len() + 1), probe.part.Len()}[:len(chunks)+1]
		cuts[len(chunks)] = probe.part.Len()
		slices.Sort(cuts)
		joins := make([]partJoin, len(chunks))
		var multi, ref mpc.Columns
		for c := range chunks {
			for i := cuts[c]; i < cuts[c+1]; i++ {
				r := i
				if order != nil {
					r = int(order[i])
				}
				chunks[c].Append(probe.part.Tuple(r), probe.part.Annot(r))
			}
			joins[c] = partJoin{stages: slices.Clone(stages), width: bound}
			joins[c].stages[0].part = &chunks[c]
			refIndexJoin(&ref, bound, joins[c].stages, nil, ring)
		}
		dirtyHeadLogs(1<<12, 3)
		indexJoins(&multi, bound, joins, ring)
		if !multi.Equal(&ref) {
			t.Fatalf("%d joins into one part: kernel output (%d rows) differs from the reference's concatenation (%d rows)",
				len(joins), multi.Len(), ref.Len())
		}
		if ref.Len() != want.Len()/2 {
			t.Fatalf("the chunks' reference joined %d rows, the whole probe %d", ref.Len(), want.Len()/2)
		}

		// The ring arm.
		const servers = 3
		var fill mpc.Columns
		if shape&8 != 0 {
			fill.Reserve(bound, 5)
			for i := 0; i < 5; i++ {
				a := int64(1)
				if shape&16 != 0 {
					a = int64(3 + i)
				}
				row := fill.AppendRow(a)
				for c := range row {
					row[c] = relation.Value(rng.Intn(d))
				}
			}
		}
		for _, w := range []int{1, 2, 8} {
			outs := make([]mpc.Columns, servers)
			for s := range outs {
				outs[s].AppendColumns(&fill)
			}
			dirtyHeadLogs(1<<12, 3)
			prev := runtime.SetParallelism(w)
			runtime.Fork(servers, func(s int) { indexJoin(&outs[s], bound, stages, order, ring) })
			runtime.SetParallelism(prev)
			var ref mpc.Columns
			ref.AppendColumns(&fill)
			refIndexJoin(&ref, bound, stages, order, ring)
			for s := range outs {
				if !outs[s].Equal(&ref) {
					t.Fatalf("width %d, server %d: kernel output (%d rows) differs from the reference (%d rows)", w, s, outs[s].Len(), ref.Len())
				}
				if outs[s].Annotated() != ref.Annotated() {
					t.Fatalf("width %d, server %d: annotation column materialized = %v, the reference's %v", w, s, outs[s].Annotated(), ref.Annotated())
				}
			}
		}
	})
}

// BenchmarkLocalJoin_Triangle times the per-server kernel alone on one
// server's share of the triangle_grid benchmark instance: Figure 6 at
// IN = 131 072 and OUT = 1 048 576 (tau = 24, side = 1 820, edge
// probability tau²/N), cell (0, 0, 0) of the 64-server 4 × 4 × 4 cube —
// about 2 700 rows per relation and 16 000 results.
func BenchmarkLocalJoin_Triangle(b *testing.B) {
	const n, tau = 131072 / 3, 24
	stages := triangleShare(mpc.NewRng(2019), tau, n/tau, 4, float64(tau*tau)/n)
	rows := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var out mpc.Columns
		indexJoin(&out, 3, stages, nil, relation.CountRing)
		rows = out.Len()
	}
	b.ReportMetric(float64(rows), "results/op")
}

// TestLocalJoinAnnotationColumn pins the representation of the kernel's
// output annotation column, which Columns.Equal does not see: a plain join
// (every stage lazy, ring.Mul(1, 1) = 1) leaves it lazy; a join whose
// products are not all 1 — under max-plus, or with an annotated stage —
// materializes it, as AppendRow does at the first product ≠ 1; and a plain
// join appending to a part whose column is already materialized writes a 1
// for every row it adds, over the stale capacity behind the column.
func TestLocalJoinAnnotationColumn(t *testing.T) {
	rng := mpc.NewRng(5)
	lazy := func(n int) *mpc.Columns { return fuzzPart(rng, n, 2, 5, false) }
	twos := func(n int) *mpc.Columns {
		var c mpc.Columns
		src := lazy(n)
		for i := 0; i < src.Len(); i++ {
			c.Append(src.Tuple(i), 2)
		}
		return &c
	}
	chain := func(probe, build *mpc.Columns) []joinStage {
		return []joinStage{
			{part: probe, src: []int{0, 1}, dst: []int{0, 1}},
			{part: build, keyPos: []int{0}, keyOut: []int{1}, src: []int{1}, dst: []int{2}},
		}
	}
	join := func(out *mpc.Columns, stages []joinStage, ring relation.Semiring) {
		t.Helper()
		var want mpc.Columns
		want.AppendColumns(out) // out's rows so far, annotations included
		indexJoin(out, 3, stages, nil, ring)
		refIndexJoin(&want, 3, stages, nil, ring)
		if !out.Equal(&want) {
			t.Fatalf("kernel output (%d rows) differs from the reference (%d rows)", out.Len(), want.Len())
		}
	}
	for _, c := range []struct {
		name   string
		stages []joinStage
		ring   relation.Semiring
		want   bool
	}{
		{"plain count", chain(lazy(60), lazy(60)), relation.CountRing, false},
		{"plain Boolean", chain(lazy(60), lazy(60)), relation.BoolRing, false},
		{"max-plus", chain(lazy(60), lazy(60)), relation.MaxPlusRing, true},
		{"annotated stage", chain(lazy(60), twos(60)), relation.CountRing, true},
		{"annotated probe", chain(twos(60), lazy(60)), relation.CountRing, true},
	} {
		var out mpc.Columns
		join(&out, c.stages, c.ring)
		if out.Len() == 0 {
			t.Fatalf("%s: the join is empty", c.name)
		}
		if out.Annotated() != c.want {
			t.Errorf("%s: annotation column materialized = %v, want %v", c.name, out.Annotated(), c.want)
		}
	}

	// An annotated join materializes the part, then a plain one appends.
	var out mpc.Columns
	join(&out, chain(lazy(60), twos(60)), relation.CountRing)
	before := out.Len()
	join(&out, chain(lazy(60), lazy(60)), relation.CountRing)
	if !out.Annotated() || out.Len() == before {
		t.Fatalf("plain join after an annotated one: %d → %d rows, materialized = %v", before, out.Len(), out.Annotated())
	}
	for i := before; i < out.Len(); i++ {
		if a := out.Annot(i); a != 1 {
			t.Fatalf("plain row %d of a materialized part carries annotation %d, want 1", i, a)
		}
	}
}

// BenchmarkLocalJoin_Chain times the kernel on one server's share of
// line3_out's last join (IN = 32 768, OUT = 524 288, p = 64): every B-value
// is heavy there, so that join is R1^H(A, B) ⋈ (R2^H ⋈ R3)(B, C, D), the
// probe keyless and the one later stage keyed on the one word B, adding C
// and D. A server holds about 24 B-values, each with 6 R1 rows (τ = 6) and
// 36–59 (C, D) rows — about 140 and 1 100 rows, and 7 000 results.
func BenchmarkLocalJoin_Chain(b *testing.B) {
	rng := mpc.NewRng(2019)
	var ab, bcd mpc.Columns
	for k := 0; k < 24; k++ {
		key := relation.Value(64 * k)
		for i := 0; i < 6; i++ {
			ab.Append(relation.Tuple{relation.Value(rng.Intn(1 << 20)), key}, 1)
		}
		for i := 36 + rng.Intn(24); i > 0; i-- {
			bcd.Append(relation.Tuple{key, relation.Value(rng.Intn(1 << 20)), relation.Value(rng.Intn(1 << 20))}, 1)
		}
	}
	benchLocalJoin(b, 4, []joinStage{
		{part: &ab, src: []int{0, 1}, dst: []int{0, 1}},
		{part: &bcd, keyPos: []int{0}, keyOut: []int{1}, src: []int{1, 2}, dst: []int{2, 3}},
	})
}

// BenchmarkLocalJoin_Product times the kernel on catalog_small's keyless
// three-way product (job 8, the Cartesian product k = 3 over a domain of
// 48): three stages of 48 one-column rows and no key, OUT = 48³ = 110 592.
func BenchmarkLocalJoin_Product(b *testing.B) {
	var rels [3]mpc.Columns
	stages := make([]joinStage, len(rels))
	for k := range rels {
		for v := 0; v < 48; v++ {
			rels[k].Append(relation.Tuple{relation.Value(v)}, 1)
		}
		stages[k] = joinStage{part: &rels[k], src: []int{0}, dst: []int{k}}
	}
	benchLocalJoin(b, 3, stages)
}

// benchLocalJoin times one plain kernel call into a fresh part per op.
func benchLocalJoin(b *testing.B, width int, stages []joinStage) {
	rows := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var out mpc.Columns
		indexJoin(&out, width, stages, nil, relation.CountRing)
		rows = out.Len()
	}
	b.ReportMetric(float64(rows), "results/op")
}
