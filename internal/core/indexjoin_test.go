package core

import (
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

// pick returns k distinct values of [0, n) in random order.
func pick(rng *mpc.Rng, n, k int) []int { return rng.Perm(n)[:k] }

// FuzzLocalJoinParity drives the kernel and the map-of-items reference
// over random shapes — tuple widths, key widths (zero included) and key
// positions on both sides, one or two stages (the second keyed on columns
// the first one bound), duplicate keys, lazy and materialized annotation
// columns, empty sides, explicit probe orders, two semirings — and demands
// equal output columns in the same row order, also when appending to a
// part that already holds rows.
func FuzzLocalJoinParity(f *testing.F) {
	f.Add(uint64(1), uint16(40), uint16(40), uint8(3), uint8(0))
	f.Add(uint64(2), uint16(0), uint16(25), uint8(2), uint8(1))
	f.Add(uint64(3), uint16(25), uint16(0), uint8(5), uint8(2))
	f.Add(uint64(4), uint16(200), uint16(300), uint8(1), uint8(3))
	f.Add(uint64(5), uint16(64), uint16(64), uint8(9), uint8(7))
	f.Fuzz(func(t *testing.T, seed uint64, nProbe, nBuild uint16, dom, flags uint8) {
		rng := mpc.NewRng(seed)
		d := int(dom)%12 + 1
		ring := relation.CountRing
		if flags&1 != 0 {
			ring = relation.MaxPlusRing
		}
		// The output row is the probe's columns, shuffled, then each later
		// stage's non-key columns.
		wp := 1 + rng.Intn(3)
		probe := joinStage{part: fuzzPart(rng, int(nProbe)%300, wp, d, flags&2 != 0), src: pick(rng, wp, wp), dst: pick(rng, wp, wp)}
		var order []int32
		if flags&4 != 0 {
			for _, r := range rng.Perm(probe.part.Len()) {
				order = append(order, int32(r))
			}
		}
		bound := wp
		stages := make([]joinStage, 1+rng.Intn(2))
		for k := range stages {
			ws := 1 + rng.Intn(3)
			n := int(nBuild) % 300
			if k == 1 {
				n = n/4 + 1
			}
			kw := rng.Intn(min(ws, bound) + 1)
			cols := pick(rng, ws, ws)
			st := joinStage{
				part:   fuzzPart(rng, n, ws, d, flags&(8<<k) != 0),
				keyPos: cols[:kw],
				keyOut: pick(rng, bound, kw),
				src:    cols[kw:],
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
			indexJoin(&got, bound, stages, order, ring)
			refIndexJoin(&want, bound, stages, order, ring)
			if !got.Equal(&want) {
				t.Fatalf("pass %d: kernel output (%d rows) differs from the map-of-items reference (%d rows)",
					pass, got.Len(), want.Len())
			}
		}
	})
}
