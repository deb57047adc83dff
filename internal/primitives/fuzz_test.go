package primitives

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/mpc"
	"repro/internal/relation"
	"repro/internal/runtime"
)

// FuzzSampleSortParity fuzzes the columnar rank-vector sort against the
// retained serialSortAndChopRef: random sizes, key ranges, key widths
// (including the degenerate width 0) and key shapes (shapedKey: both signs,
// the int64 extremes, top-byte-only and last-word-only differences), mixed
// tuple arities, interleaved tag mixes (so the tag pass runs), data-plane
// widths, cluster sizes, and the record pools clean or dirtied (dirtyPools)
// must produce value-identical chunks and identical cluster charges. Sizes
// run from the insertion sort's windows to thousands of records over
// multi-word keys. Run continuously by `make fuzz-smoke` (part of ci).
func FuzzSampleSortParity(f *testing.F) {
	// Seed corpus from the adversarial-skew shapes of the parity tests:
	// one heavy key, zipf-ish skew, few distinct keys across many chunks,
	// degenerate sizes, pools clean and dirtied — plus key widths 0, 2 and 3
	// and sizes in the thousands on multi-value flat keys.
	f.Add(int64(1), uint16(2000), uint16(1), uint8(2), uint8(16), uint8(1), true)     // one heavy key
	f.Add(int64(2), uint16(2000), uint16(250), uint8(8), uint8(16), uint8(1), true)   // zipf-ish
	f.Add(int64(3), uint16(1000), uint16(3), uint8(3), uint8(7), uint8(1), false)     // 3 keys, odd p
	f.Add(int64(4), uint16(3), uint16(2), uint8(2), uint8(2), uint8(1), true)         // tiny
	f.Add(int64(5), uint16(0), uint16(1), uint8(1), uint8(4), uint8(1), false)        // empty
	f.Add(int64(6), uint16(4000), uint16(4000), uint8(33), uint8(16), uint8(1), true) // oversized width
	f.Add(int64(7), uint16(900), uint16(40), uint8(4), uint8(8), uint8(0), true)      // width-0 keys: tag-only order
	f.Add(int64(8), uint16(1200), uint16(80), uint8(5), uint8(9), uint8(3), false)    // width-3 keys
	f.Add(int64(9), uint16(5000), uint16(200), uint8(8), uint8(16), uint8(2), true)   // thousands of records, width-2 keys
	// Seeds from 16 up select the key shapes of shapedKey (seed/16 mod
	// keyShapes) — what a byte-wise sort can get wrong.
	f.Add(int64(17), uint16(3000), uint16(900), uint8(2), uint8(7), uint8(1), true)   // both signs
	f.Add(int64(33), uint16(2000), uint16(700), uint8(3), uint8(5), uint8(2), false)  // int64 extremes
	f.Add(int64(49), uint16(6000), uint16(255), uint8(2), uint8(16), uint8(1), true)  // top byte only, thousands of records
	f.Add(int64(65), uint16(1500), uint16(1500), uint8(4), uint8(9), uint8(3), false) // only the last of three words differs
	f.Add(int64(18), uint16(33), uint16(9), uint8(1), uint8(3), uint8(1), true)       // at the insertion cutoff

	f.Fuzz(func(t *testing.T, seed int64, n uint16, keys uint16, width, p, kw uint8, dirty bool) {
		nn := int(n) % 8192
		kk := int(keys)%(nn+1) + 1
		b := int(width)%16 + 1
		pp := int(p)%16 + 1
		kwidth := int(kw) % 4

		shape := int(uint64(seed) / 16 % keyShapes)

		rng := rand.New(rand.NewSource(seed))
		recs := make([]rec, nn)
		for i := range recs {
			recs[i] = mkRecShaped(shape, kwidth, rng.Intn(kk), uint8(rng.Intn(3)), i)
		}

		ref := mpc.NewCluster(pp)
		refChunks := serialSortAndChopRef(ref, append([]rec(nil), recs...))
		refStats := ref.Snapshot()

		if dirty {
			dirtyPools(len(recs), kwidth)
		}
		c := mpc.NewCluster(pp)
		rc, sc := getRecCols(len(recs)), getSortScratch()
		fillRecCols(rc, recs)
		prevW := runtime.SetParallelism(b)
		sampleSortCols(rc, sc)
		runtime.SetParallelism(prevW)
		bounds := chopBounds(c, rc.len(), sc)
		gotStats := c.Snapshot()

		for s := 0; s < pp; s++ {
			if !reflect.DeepEqual(refChunks[s], colsChunk(rc, recs, bounds, s)) {
				t.Fatalf("chunk %d differs (n=%d keys=%d shape=%d kw=%d b=%d p=%d dirty=%v)",
					s, nn, kk, shape, kwidth, b, pp, dirty)
			}
		}
		if !reflect.DeepEqual(refStats, gotStats) {
			t.Fatalf("charges differ:\nref %+v\ngot %+v", refStats, gotStats)
		}
		putSortScratch(sc)
		putRecCols(rc)
	})
}

// FuzzSumByKeyParity fuzzes the word-keyed aggregation side — SumByKey,
// CountByKey, DistinctByKey over mpc.RowIndex and annotation views —
// against the retained string-keyed references (serialref_test.go): random
// part sizes (empty parts included), key widths 0–3 at non-identity
// positions, key ranges from one heavy key to all-distinct, annotated and
// lazy-annotation inputs, two semirings, cluster sizes, data-plane widths
// and the record pools clean or dirtied must produce Equal parts in
// identical per-server row order — first-occurrence order, so hash order
// cannot leak — and identical cluster charges. The references run at width
// 1. Run continuously by `make fuzz-smoke` (part of ci).
func FuzzSumByKeyParity(f *testing.F) {
	f.Add(int64(1), uint16(400), uint16(1), uint8(1), uint8(16), uint8(1), true, true)      // one heavy key
	f.Add(int64(2), uint16(400), uint16(65535), uint8(2), uint8(16), uint8(2), false, true) // all distinct, lazy annotations
	f.Add(int64(3), uint16(300), uint16(40), uint8(3), uint8(7), uint8(8), true, false)     // width-3 keys, odd p, clean pools
	f.Add(int64(4), uint16(200), uint16(9), uint8(0), uint8(5), uint8(2), true, true)       // width-0 keys: one group
	f.Add(int64(5), uint16(0), uint16(3), uint8(1), uint8(4), uint8(1), false, false)       // empty input
	f.Add(int64(6), uint16(3), uint16(2), uint8(2), uint8(2), uint8(3), true, true)         // tiny parts
	f.Add(int64(7), uint16(900), uint16(250), uint8(1), uint8(16), uint8(2), false, false)  // zipf-ish, lazy

	f.Fuzz(func(t *testing.T, seed int64, n, keys uint16, kw, p, width uint8, annotated, dirty bool) {
		maxPart := int(n) % 1024
		kk := int(keys)%(8*maxPart+1) + 1
		kwidth := int(kw) % 4
		pp := int(p)%16 + 1
		b := int(width)%8 + 1
		ring := relation.CountRing
		if seed&1 == 1 {
			ring = relation.MaxPlusRing
		}

		// Rows are (payload, key digits…): attribute 9 is the payload, key
		// attribute j holds digit j of the drawn key in base 4 (the last
		// digit takes the rest), so keys are distinct exactly when the
		// draws are. The key attributes are listed in reverse.
		schema := relation.NewSchema([]relation.Attr{9, 1, 2, 3}[:kwidth+1]...)
		keyAttrs := make([]relation.Attr, kwidth)
		for j := range keyAttrs {
			keyAttrs[j] = relation.Attr(kwidth - j)
		}
		build := func() *mpc.Dist {
			rng := rand.New(rand.NewSource(seed))
			d := mpc.NewDist(mpc.NewCluster(pp), schema)
			row := make(relation.Tuple, kwidth+1)
			for s := range d.Parts {
				for i, rows := 0, rng.Intn(maxPart+1); i < rows; i++ {
					k := rng.Intn(1 + rng.Intn(kk)) // zipf-ish over [0, kk)
					row[0] = relation.Value(i)
					for j := 1; j <= kwidth; j++ {
						if j < kwidth {
							row[j], k = relation.Value(k%4), k/4
						} else {
							row[j] = relation.Value(k)
						}
					}
					a := int64(1)
					if annotated {
						a = int64(rng.Intn(4))
					}
					d.Parts[s].Append(row, a)
				}
			}
			return d
		}

		ops := []struct {
			name      string
			ref, prod func(d *mpc.Dist) *mpc.Dist
		}{
			{"SumByKey",
				func(d *mpc.Dist) *mpc.Dist { return sumByKeyRef(d, keyAttrs, ring, uint64(seed)) },
				func(d *mpc.Dist) *mpc.Dist { return SumByKey(d, keyAttrs, ring, uint64(seed)) }},
			{"CountByKey",
				func(d *mpc.Dist) *mpc.Dist { return countByKeyRef(d, keyAttrs, uint64(seed)) },
				func(d *mpc.Dist) *mpc.Dist { return CountByKey(d, keyAttrs, uint64(seed)) }},
			{"DistinctByKey",
				func(d *mpc.Dist) *mpc.Dist { return distinctByKeyRef(d, keyAttrs) },
				func(d *mpc.Dist) *mpc.Dist { return DistinctByKey(d, keyAttrs) }},
		}
		for _, op := range ops {
			prevW := runtime.SetParallelism(1)
			ref := build()
			want := op.ref(ref)
			runtime.SetParallelism(b)
			got := build()
			if dirty {
				dirtyPools(got.Size(), kwidth)
			}
			have := op.prod(got)
			runtime.SetParallelism(prevW)

			if !want.Schema.Equal(have.Schema) {
				t.Fatalf("%s: schema %v, reference %v", op.name, have.Schema, want.Schema)
			}
			for s := range want.Parts {
				if !want.Parts[s].Equal(&have.Parts[s]) {
					t.Fatalf("%s: part %d differs from the string-keyed reference (maxPart=%d keys=%d kw=%d p=%d b=%d annotated=%v dirty=%v ring=%s)",
						op.name, s, maxPart, kk, kwidth, pp, b, annotated, dirty, ring.Name)
				}
			}
			if !reflect.DeepEqual(ref.C.Snapshot(), got.C.Snapshot()) {
				t.Fatalf("%s: charges differ:\nref %+v\ngot %+v", op.name, ref.C.Snapshot(), got.C.Snapshot())
			}
		}
	})
}

// FuzzSemiJoinParity fuzzes the one multi-search scan against the
// retained serial bodies: the semi- and anti-join against the two-sort
// semiJoinRef/antiJoinRef (DistinctByKey, then lookupRef), and its
// directory arm — Lookup against a globally distinct, annotated directory
// made from d — against lookupRef, through an AttachAnnot emit and a
// row-widening emit that writes its extra column in place. Random part
// sizes for x and d (either side empty, empty parts), d with duplicates
// within and across servers, key widths 0–3 held at different,
// non-identity positions on the two sides, key ranges from one heavy key
// to all-distinct, annotated x, cluster sizes, data-plane widths 1, 2 and
// 8 and the record pools clean or dirtied. The semi-join's kept rows, read
// part-major, must be the reference's global sequence with its
// annotations — which server a row lands on is not part of its contract,
// since the chunk boundaries move with the number of d records staged —
// and a lookup's parts and cluster snapshot must equal lookupRef's one for
// one. The parts must be identical at every width, and the cluster must
// show exactly three rounds: the sort round at most ⌈(|x| + Σ_s
// distinct_s(d))/p⌉ per server, then the coordinator exchange at p and 1.
// Run continuously by `make fuzz-smoke`.
func FuzzSemiJoinParity(f *testing.F) {
	f.Add(int64(1), uint16(300), uint16(300), uint16(0), uint8(1), uint8(15), true, true)      // one heavy key
	f.Add(int64(2), uint16(300), uint16(200), uint16(65535), uint8(2), uint8(15), false, true) // near-distinct keys
	f.Add(int64(3), uint16(200), uint16(400), uint16(40), uint8(3), uint8(6), true, false)     // width-3 keys, odd p, d heavier than x
	f.Add(int64(4), uint16(150), uint16(90), uint16(9), uint8(0), uint8(4), true, true)        // width-0 keys: found iff d is not empty
	f.Add(int64(5), uint16(0), uint16(50), uint16(3), uint8(1), uint8(3), false, false)        // x empty: no rounds
	f.Add(int64(6), uint16(120), uint16(0), uint16(3), uint8(1), uint8(3), true, true)         // d empty: nothing found
	f.Add(int64(7), uint16(3), uint16(2), uint16(2), uint8(2), uint8(1), true, true)           // tiny parts
	f.Add(int64(8), uint16(1000), uint16(900), uint16(600), uint8(1), uint8(15), false, false) // a thousand records a side
	f.Add(int64(9), uint16(40), uint16(40), uint16(5), uint8(1), uint8(0), true, false)        // one server
	// Every d key repeats on every server (at least 29, 37 and 5 times
	// per server and key at these seeds), so the combiner on the sorted
	// order drops most of d: one-, two- and three-word keys.
	f.Add(int64(13), uint16(300), uint16(1000), uint16(3), uint8(1), uint8(3), true, true)
	f.Add(int64(11), uint16(200), uint16(900), uint16(1), uint8(2), uint8(6), false, true)
	f.Add(int64(12), uint16(500), uint16(1000), uint16(7), uint8(3), uint8(1), true, false)

	f.Fuzz(func(t *testing.T, seed int64, nx, nd, keys uint16, kw, p uint8, annotated, dirty bool) {
		maxX, maxD := int(nx)%1024, int(nd)%1024
		kk := int(keys)%(8*(maxX+maxD)+1) + 1
		kwidth := int(kw) % 4
		pp := int(p)%16 + 1

		// x rows are (payload, key digits…), d rows (digit 1, payload,
		// digits 2…); the key attributes are listed in reverse, so neither
		// side reads its key at identity positions and the two differ.
		xSchema := relation.NewSchema([]relation.Attr{9, 1, 2, 3}[:kwidth+1]...)
		dSchema := relation.NewSchema(8)
		if kwidth > 0 {
			dSchema = relation.NewSchema(append([]relation.Attr{1, 8}, []relation.Attr{2, 3}[:kwidth-1]...)...)
		}
		keyAttrs := make([]relation.Attr, kwidth)
		for j := range keyAttrs {
			keyAttrs[j] = relation.Attr(kwidth - j)
		}
		fill := func(d *mpc.Dist, rng *rand.Rand, maxPart int, annotated bool) {
			pos := d.Positions(relation.NewSchema([]relation.Attr{1, 2, 3}[:kwidth]...))
			row := make(relation.Tuple, len(d.Schema))
			for s := range d.Parts {
				for i, rows := 0, rng.Intn(maxPart+1); i < rows; i++ {
					k := rng.Intn(1 + rng.Intn(kk)) // zipf-ish over [0, kk)
					for j := range row {
						row[j] = relation.Value(i)
					}
					for j, at := range pos {
						if j < kwidth-1 {
							row[at], k = relation.Value(k%4), k/4
						} else {
							row[at] = relation.Value(k)
						}
					}
					a := int64(1)
					if annotated {
						a = int64(rng.Intn(4))
					}
					d.Parts[s].Append(row, a)
				}
			}
		}
		build := func() (x, d *mpc.Dist) {
			rng := rand.New(rand.NewSource(seed))
			c := mpc.NewCluster(pp)
			x, d = mpc.NewDist(c, xSchema), mpc.NewDist(c, dSchema)
			fill(x, rng, maxX, annotated)
			fill(d, rng, maxD, false)
			return x, d
		}
		flatten := func(d *mpc.Dist) (rows []mpc.Item) {
			for s := range d.Parts {
				for i := 0; i < d.Parts[s].Len(); i++ {
					it := d.Parts[s].Item(i)
					rows = append(rows, mpc.Item{T: append(relation.Tuple(nil), it.T...), A: it.A})
				}
			}
			return rows
		}

		// directoryOf keeps the first row of every key of d, annotated 1–3:
		// a directory as SumByKey or DistinctByKey would leave it, made
		// without charging the cluster.
		directoryOf := func(d *mpc.Dist) *mpc.Dist {
			dir := mpc.NewDist(d.C, d.Schema)
			pos := d.Positions(keyAttrs)
			seen := map[string]bool{}
			for s := range d.Parts {
				for i := 0; i < d.Parts[s].Len(); i++ {
					t := d.Parts[s].Tuple(i)
					if k := relation.KeyAt(t, pos); !seen[k] {
						seen[k] = true
						dir.Parts[s].Append(t, int64(1+len(seen)%3))
					}
				}
			}
			return dir
		}
		// The widening lookup appends column 7 — the directory row's first
		// value plus its annotation — to every matched x row, and drops the
		// unmatched ones.
		wide := append(append(relation.Schema{}, xSchema...), 7)
		widenRef := func(x, d *mpc.Dist) *mpc.Dist {
			t := make(relation.Tuple, len(wide))
			return lookupRef(x, keyAttrs, d, keyAttrs, wide,
				func(it mpc.Item, r LookupResult) (mpc.Item, bool) {
					if !r.Found {
						return mpc.Item{}, false
					}
					n := copy(t, it.T)
					t[n] = r.DTuple[0] + relation.Value(r.DAnnot)
					return mpc.Item{T: t, A: it.A + r.DAnnot}, true
				})
		}
		widen := func(x, d *mpc.Dist) *mpc.Dist {
			return Lookup(x, keyAttrs, d, keyAttrs, wide,
				func(out *mpc.Columns, it mpc.Item, r LookupResult) {
					if r.Found {
						t := out.AppendRow(it.A + r.DAnnot)
						n := copy(t, it.T)
						t[n] = r.DTuple[0] + relation.Value(r.DAnnot)
					}
				})
		}
		attachRef := func(x, d *mpc.Dist) *mpc.Dist {
			return lookupRef(x, keyAttrs, d, keyAttrs, xSchema,
				func(it mpc.Item, r LookupResult) (mpc.Item, bool) {
					if !r.Found {
						return it, !annotated
					}
					return mpc.Item{T: it.T, A: it.A * r.DAnnot}, true
				})
		}
		attach := func(x, d *mpc.Dist) *mpc.Dist {
			return AttachAnnot(x, keyAttrs, d, keyAttrs, relation.CountRing, annotated)
		}

		ops := []struct {
			name      string
			directory bool // d becomes directoryOf(d); parts and charges match the reference's
			schema    relation.Schema
			ref, prod func(x, d *mpc.Dist) *mpc.Dist
		}{
			{"SemiJoin", false, xSchema,
				func(x, d *mpc.Dist) *mpc.Dist { return semiJoinRef(x, keyAttrs, d, keyAttrs) },
				func(x, d *mpc.Dist) *mpc.Dist { return SemiJoin(x, keyAttrs, d, keyAttrs) }},
			{"AntiJoin", false, xSchema,
				func(x, d *mpc.Dist) *mpc.Dist { return antiJoinRef(x, keyAttrs, d, keyAttrs) },
				func(x, d *mpc.Dist) *mpc.Dist { return AntiJoin(x, keyAttrs, d, keyAttrs) }},
			{"AttachAnnot", true, xSchema, attachRef, attach},
			{"Lookup widening", true, wide, widenRef, widen},
		}
		for _, op := range ops {
			prevW := runtime.SetParallelism(1)
			x, d := build()
			if op.directory {
				d = directoryOf(d)
			}
			ref := op.ref(x, d)
			refStats := x.C.Snapshot()
			want := flatten(ref)
			var first *mpc.Dist
			for _, b := range []int{1, 2, 8} {
				runtime.SetParallelism(b)
				x, d := build()
				if op.directory {
					d = directoryOf(d)
				}
				staged := 0
				dPos := d.Positions(keyAttrs)
				for s := range d.Parts {
					seen := map[string]bool{}
					for i := 0; i < d.Parts[s].Len(); i++ {
						seen[relation.KeyAt(d.Parts[s].Tuple(i), dPos)] = true
					}
					staged += len(seen)
				}
				if dirty {
					dirtyPools(x.Size()+d.Size(), kwidth)
				}
				have := op.prod(x, d)
				where := fmt.Sprintf("%s (maxX=%d maxD=%d keys=%d kw=%d p=%d b=%d annotated=%v dirty=%v)",
					op.name, maxX, maxD, kk, kwidth, pp, b, annotated, dirty)

				if !have.Schema.Equal(op.schema) {
					t.Fatalf("%s: schema %v, want %v", where, have.Schema, op.schema)
				}
				if got := flatten(have); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: %d kept rows differ from the reference's %d", where, len(got), len(want))
				}
				if op.directory {
					for s := range ref.Parts {
						if !ref.Parts[s].Equal(&have.Parts[s]) {
							t.Fatalf("%s: part %d differs from the serial lookup's", where, s)
						}
					}
					if got := x.C.Snapshot(); !reflect.DeepEqual(got, refStats) {
						t.Fatalf("%s: cluster %+v, the serial lookup's %+v", where, got, refStats)
					}
				}
				if first == nil {
					first = have
				}
				for s := range first.Parts {
					if !first.Parts[s].Equal(&have.Parts[s]) {
						t.Fatalf("%s: part %d differs from width 1", where, s)
					}
				}
				c := x.C
				if x.Size() == 0 {
					if c.Rounds() != 0 {
						t.Fatalf("%s: empty x charged %d rounds", where, c.Rounds())
					}
					continue
				}
				n := x.Size() + staged
				if c.Rounds() != 3 || c.RoundMax(1) > (n+pp-1)/pp || c.RoundMax(2) != pp || c.RoundMax(3) != 1 {
					t.Fatalf("%s: %d rounds, maxima %d (bound %d), %d, %d — want the sort round and one coordinator exchange",
						where, c.Rounds(), c.RoundMax(1), (n+pp-1)/pp, c.RoundMax(2), c.RoundMax(3))
				}
				if c.TotalComm() != n+2*pp {
					t.Fatalf("%s: %d tuples communicated, want %d staged records + 2p", where, c.TotalComm(), n+2*pp)
				}
			}
			runtime.SetParallelism(prevW)
		}
	})
}
