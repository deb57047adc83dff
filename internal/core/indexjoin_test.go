package core

import (
	"math"
	"testing"

	"repro/internal/mpc"
	"repro/internal/relation"
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
	log := mpc.GetInt32Log(n)
	defer log.Release()
	s := log.S[:cap(log.S)]
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

// pick returns k distinct values of [0, n) in random order.
func pick(rng *mpc.Rng, n, k int) []int { return rng.Perm(n)[:k] }

// FuzzLocalJoinParity drives the kernel and the map-of-items reference
// over random shapes — tuple widths, key widths (zero included) and key
// positions on both sides, one to four stages after the probe (each keyed
// on columns the probe or an earlier stage bound), duplicate rows at every
// level, lazy and materialized annotation columns, empty sides, joins that
// match nothing (the kernel never runs its fill pass), explicit probe
// orders, two semirings, and head logs dirtied with sentinels before every
// call — and demands equal output columns in the same row order, also when
// appending to a part that already holds rows.
//
// flags: bit 0 the max-plus ring, bit 1 a materialized probe, bit 2 a
// probe order, bits 3–6 materialized stages, bit 7 dirty head logs.
// shape: 1 + shape%4 stages; bit 2 shifts one stage out of the domain.
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
			for _, r := range rng.Perm(probe.part.Len()) {
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
