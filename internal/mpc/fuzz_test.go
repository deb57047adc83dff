package mpc

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/relation"
)

// FuzzExchangeParity fuzzes the batched columnar exchange against the
// retained tuple-at-a-time serialRouteRef: random tuple sets (sizes, tuple
// widths, key skews, annotation presence), every routing shape, and
// arbitrary task counts must produce value-identical parts and
// byte-identical per-round charge tables. For the hash shape the flat fast
// path (router.hashPos) additionally runs against the same reference.
// Every arm runs again on dirty task scratch (dirtyTaskScratch), and the
// output is pushed through the flat↔per-row conversions in both
// directions. Run continuously by `make fuzz-smoke` (part of ci).
func FuzzExchangeParity(f *testing.F) {
	// Seed corpus from the adversarial-skew cases of the parity tests:
	// zipf-ish keys, one gathered (fully skewed) source, a heavy-key set,
	// annotated and unannotated, every shape index, serial and oversized
	// task counts — plus the degenerate tuple widths 0 and 1 and a wide
	// width 3, where flat row indexing breaks first.
	f.Add(uint64(11), uint16(2000), uint8(0), uint8(1), uint8(16), uint8(2), false, false)
	f.Add(uint64(11), uint16(2000), uint8(0), uint8(8), uint8(16), uint8(2), false, false)
	f.Add(uint64(31), uint16(1500), uint8(1), uint8(4), uint8(16), uint8(2), true, false)
	f.Add(uint64(23), uint16(997), uint8(2), uint8(3), uint8(7), uint8(2), false, true)
	f.Add(uint64(5), uint16(64), uint8(3), uint8(2), uint8(4), uint8(2), true, true)
	f.Add(uint64(7), uint16(0), uint8(4), uint8(5), uint8(3), uint8(2), false, false)
	f.Add(uint64(42), uint16(300), uint8(4), uint8(33), uint8(1), uint8(2), true, false)
	f.Add(uint64(13), uint16(800), uint8(0), uint8(4), uint8(8), uint8(0), true, false)  // width-0 scalars
	f.Add(uint64(17), uint16(900), uint8(1), uint8(3), uint8(8), uint8(1), false, false) // width-1
	f.Add(uint64(19), uint16(700), uint8(0), uint8(2), uint8(6), uint8(3), true, true)   // width-3, gathered

	shapeNames := []string{"hash", "replicate2", "fanout0to2", "broadcast", "gather"}

	f.Fuzz(func(t *testing.T, seed uint64, n uint16, shape, tasks, p, width uint8, annotated, gathered bool) {
		pp := int(p)%16 + 1
		nn := int(n) % 4096
		nTasks := int(tasks)%12 + 1
		w := int(width) % 4
		name := shapeNames[int(shape)%len(shapeNames)]
		dest := destFns(pp)[name]

		build := func() *Dist {
			c := NewCluster(pp)
			attrs := make([]relation.Attr, w)
			for j := range attrs {
				attrs[j] = relation.Attr(j + 1)
			}
			r := relation.New("R", relation.NewSchema(attrs...))
			rng := NewRng(seed)
			row := make([]relation.Value, w)
			for i := 0; i < nn; i++ {
				for j := range row {
					row[j] = relation.Value(i*w + j)
				}
				if w > 0 {
					// Zipf-ish first column: heavy keys stress the batches.
					row[0] = relation.Value(rng.Intn(1 + rng.Intn(1+nn/8)))
				}
				if annotated {
					r.AddAnnotated(int64(rng.Intn(5)), row...)
				} else {
					r.Add(row...)
				}
			}
			d := FromRelation(c, r)
			if gathered {
				// Fully skewed source: every item in one part.
				d = gatherTo(d, int(seed%uint64(pp)))
			}
			return d
		}

		ref := build()
		refOut := serialRouteRef(ref, ref.Schema, dest)
		refTable := roundTable(ref.C)

		// route runs one arm against the reference: same parts, same
		// charges. The hash shape also has the flat fast path — key
		// positions and salt in the router instead of a closure,
		// destinations hashed straight off the flat buffer.
		route := func(arm string, rt router) *Dist {
			got := build()
			gotOut := got.routeTasks(got.Schema, rt, nTasks)
			if !partsEqual(refOut, gotOut) {
				t.Fatalf("%s: parts differ from serial reference (n=%d w=%d p=%d tasks=%d shape=%s)",
					arm, nn, w, pp, nTasks, name)
			}
			if gotTable := roundTable(got.C); !reflect.DeepEqual(refTable, gotTable) {
				t.Fatalf("%s: charge tables differ:\nref %v\ngot %v", arm, refTable, gotTable)
			}
			return gotOut
		}
		gotOut := route("closure router", manyRouter(dest))
		if name == "hash" {
			route("hash fast path", router{hashPos: hashPosFor(w), hashSalt: 7})
		}
		// The same arms on dirty scratch: every task vector the plans draw
		// holds sentinels over its whole capacity, with stale lengths.
		dirtyTaskScratch(nTasks, 2*nn+pp)
		route("closure router on dirty scratch", manyRouter(dest))
		if name == "hash" {
			dirtyTaskScratch(nTasks, 2*nn+pp)
			route("hash fast path on dirty scratch", router{hashPos: hashPosFor(w), hashSalt: 7})
		}

		// Conversion roundtrip, flat → per-row → flat: rebuilding every
		// output part item-at-a-time must reproduce it under Equal.
		for s := range gotOut.Parts {
			src := &gotOut.Parts[s]
			var rebuilt Columns
			for i := 0; i < src.Len(); i++ {
				rebuilt.AppendItem(src.Item(i))
			}
			if !src.Equal(&rebuilt) || !rebuilt.Equal(src) {
				t.Fatalf("part %d: flat→per-row→flat roundtrip broke Equal (w=%d)", s, w)
			}
		}

		// Conversion roundtrip, per-row → flat: FromRelation's strided flat
		// placement must match a per-row Append of the same round-robin
		// distribution.
		rel := gotOut.ToRelation("roundtrip")
		c2 := NewCluster(pp)
		flat := FromRelation(c2, rel)
		expect := &Dist{C: c2, Schema: rel.Schema, Parts: make([]Columns, pp)}
		for i := range rel.Tuples {
			expect.Parts[i%pp].Append(rel.Tuples[i], rel.Annots[i])
		}
		if !partsEqual(expect, flat) {
			t.Fatalf("per-row→flat roundtrip differs from Append reference (n=%d w=%d p=%d)", nn, w, pp)
		}
	})
}

// FuzzRowIndexParity fuzzes the row index against a map from key to row
// list: random parts of widths 0–4, key positions with repeats (and none),
// words from a small domain or from the full int64 range with its extremes.
// Every row's key must hit with its whole chain in insertion order, a
// near-miss of each key must agree with the map, Opens(i) must mark exactly
// the first row of each key and Groups() must count the keys. Probes hold
// the key at other positions than the indexed rows do, and the pool arrays
// are dirtied with sentinels before the build. Run continuously by `make
// fuzz-smoke` (part of ci).
func FuzzRowIndexParity(f *testing.F) {
	f.Add(uint64(1), uint16(500), uint8(3), uint8(2), uint8(6), false)
	f.Add(uint64(2), uint16(700), uint8(4), uint8(3), uint8(3), true)
	f.Add(uint64(3), uint16(300), uint8(2), uint8(4), uint8(1), false) // one heavy key, repeated positions
	f.Add(uint64(4), uint16(200), uint8(0), uint8(2), uint8(5), false) // width 0: the keyless group
	f.Add(uint64(5), uint16(400), uint8(1), uint8(0), uint8(9), true)  // empty pos
	f.Add(uint64(6), uint16(0), uint8(3), uint8(1), uint8(4), false)   // empty part
	f.Add(uint64(7), uint16(1), uint8(1), uint8(1), uint8(4), true)    // single row

	extremes := []relation.Value{0, -1, 1, math.MinInt64, math.MaxInt64, math.MinInt64 + 1, math.MaxInt64 - 1}

	f.Fuzz(func(t *testing.T, seed uint64, n uint16, width, keys, dom uint8, wide bool) {
		rng := NewRng(seed)
		nn := int(n) % 2048
		w := int(width) % 5
		word := func() relation.Value {
			if !wide {
				return relation.Value(rng.Intn(int(dom)%12 + 1))
			}
			if rng.Intn(2) == 0 {
				return extremes[rng.Intn(len(extremes))]
			}
			return relation.Value(rng.Next())
		}
		var pos []int
		if w > 0 {
			for k := int(keys) % 4; k > 0; k-- {
				pos = append(pos, rng.Intn(w))
			}
		}

		// Dirty the pool: whatever the build takes from it held other data.
		for _, size := range []int{8, 2 * nn, 4 * nn, 8 * nn} {
			a := indexArraysPool.Get()
			a.slots, a.next = Resize(a.slots, size), Resize(a.next, size)
			for i := range a.slots {
				a.slots[i], a.next[i] = int32(-7-i), int32(-11-i)
			}
			indexArraysPool.Put(a)
		}

		var cols Columns
		row := make(relation.Tuple, w)
		for i := 0; i < nn; i++ {
			for j := range row {
				row[j] = word()
			}
			cols.Append(row, 1)
		}
		want := map[string][]int{}
		for i := 0; i < nn; i++ {
			k := relation.KeyAt(cols.Tuple(i), pos)
			want[k] = append(want[k], i)
		}

		ix := IndexRows(&cols, pos)
		defer ix.Release()
		if ix.Groups() != len(want) {
			t.Fatalf("Groups() = %d, want %d", ix.Groups(), len(want))
		}
		for i := 0; i < nn; i++ {
			k := relation.KeyAt(cols.Tuple(i), pos)
			if ix.Opens(i) != (want[k][0] == i) {
				t.Fatalf("Opens(%d) = %v, first row of its key is %d", i, ix.Opens(i), want[k][0])
			}
		}

		// The probe holds the key reversed, after one filler word.
		probe := make(relation.Tuple, len(pos)+1)
		ppos := make([]int, len(pos))
		for k := range pos {
			ppos[k] = len(pos) - k
		}
		check := func(key relation.Tuple) {
			probe[0] = word()
			for k := range pos {
				probe[ppos[k]] = key[k]
			}
			var got []int
			for r := ix.First(probe, ppos); r >= 0; r = ix.Next(r) {
				got = append(got, r)
			}
			if exp := want[relation.KeyAt(probe, ppos)]; !reflect.DeepEqual(got, exp) {
				t.Fatalf("key %v (pos %v, w=%d): chain %v, want %v", key, pos, w, got, exp)
			}
		}
		key := make(relation.Tuple, len(pos))
		for i := 0; i < nn; i++ {
			for k, p := range pos {
				key[k] = cols.Tuple(i)[p]
			}
			check(key) // hits
			if len(key) > 0 {
				key[rng.Intn(len(key))]++ // a near-miss: absent unless another row holds it
				check(key)
			}
		}
		for i := 0; i < 64 && len(pos) > 0; i++ {
			for k := range key {
				key[k] = word()
			}
			check(key)
		}
	})
}

// dirtyTaskScratch takes k exchange task scratches from the pool at once,
// fills every vector to length n with sentinels — counts and offsets far
// out of range, destinations past every server, fan-outs of 3 — and
// returns them, so the next plans draw scratch whose every read-before-
// write would corrupt the output or panic.
func dirtyTaskScratch(k, n int) {
	if k == 0 {
		return
	}
	ts := taskScratchPool.Get()
	defer taskScratchPool.Put(ts)
	ts.counts, ts.bases = Resize(ts.counts, n), Resize(ts.bases, n)
	ts.dests, ts.fans = Resize(ts.dests, n), Resize(ts.fans, n)
	ts.route, ts.hdests = Resize(ts.route, n), Resize(ts.hdests, n)
	for i := 0; i < n; i++ {
		ts.counts[i], ts.bases[i] = math.MaxInt32/2, -1<<20
		ts.dests[i], ts.fans[i] = math.MaxInt32, 3
		ts.route[i], ts.hdests[i] = -1, 0xff
	}
	dirtyTaskScratch(k-1, n)
}
