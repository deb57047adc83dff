package primitives

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/mpc"
	"repro/internal/relation"
	"repro/internal/runtime"
)

// sortInput is one adversarial record-set shape. Payloads (it.T[1]) are the
// input index, so chunk equality also proves the sort is stable: equal
// (key, tag) records must keep input order.
type sortInput struct {
	name string
	recs func() []rec
}

func mkRec(key int, tag uint8, i int) rec {
	return rec{
		key: relation.EncodeValues(relation.Value(key)),
		tag: tag,
		it:  mpc.Item{T: relation.Tuple{relation.Value(key), relation.Value(i)}, A: int64(i)},
	}
}

// mkRecKW builds a record with a kw-value key derived from key and a tuple
// whose arity varies with i: the primitives mix directory and probe tuples
// of different arities in one record set, with only the key width fixed.
// kw=0 makes every key the empty window (the degenerate width where flat
// key indexing breaks first); the payload still carries i so chunk equality
// proves stability.
func mkRecKW(kw, key int, tag uint8, i int) rec { return mkRecShaped(0, kw, key, tag, i) }

// keyShapes counts the key shapes of shapedKey.
const keyShapes = 5

// shapedKey spreads a drawn key over kw values in one of keyShapes ways.
// Shape 0 is the small non-negative range every generator draws from; the
// others are the values a byte-wise sort can get wrong and a comparison
// sort cannot: both signs (1), the ends of the int64 range (2), values that
// differ in their top byte alone, sign bit included (3), and wide keys that
// differ in their last word alone (4).
func shapedKey(shape, kw, key int) []relation.Value {
	kv := make([]relation.Value, kw)
	for j := range kv {
		k := relation.Value(key >> uint(2*j))
		switch shape {
		case 1:
			k = k>>1 ^ -(k & 1) // zigzag: 0, −1, 1, −2, …
		case 2:
			k = []relation.Value{math.MinInt64, math.MinInt64 + 1, -1, 0, 1, math.MaxInt64 - 1, math.MaxInt64}[k%7]
		case 3:
			k <<= 56
		case 4:
			k = 7
			if j == kw-1 {
				k = relation.Value(key)
			}
		}
		kv[j] = k
	}
	return kv
}

// mkRecShaped is mkRecKW over shapedKey.
func mkRecShaped(shape, kw, key int, tag uint8, i int) rec {
	t := make(relation.Tuple, 1+i%3)
	for j := range t {
		t[j] = relation.Value(i + j)
	}
	return rec{key: relation.EncodeValues(shapedKey(shape, kw, key)...), tag: tag, it: mpc.Item{T: t, A: int64(i)}}
}

// sortInputs covers the skew shapes the primitives meet: uniform keys,
// one heavy key spanning every chunk, zipf-ish skew with a directory-side
// tag mix, pre-sorted and reverse-sorted runs, and degenerate sizes.
func sortInputs(n int) []sortInput {
	return []sortInput{
		{"uniform", func() []rec {
			rng := rand.New(rand.NewSource(1))
			recs := make([]rec, n)
			for i := range recs {
				recs[i] = mkRec(rng.Intn(n), uint8(i%2), i)
			}
			return recs
		}},
		{"one_heavy_key", func() []rec {
			recs := make([]rec, n)
			for i := range recs {
				recs[i] = mkRec(7, uint8(i%2), i)
			}
			return recs
		}},
		{"zipfish", func() []rec {
			rng := rand.New(rand.NewSource(2))
			recs := make([]rec, n)
			for i := range recs {
				recs[i] = mkRec(rng.Intn(1+rng.Intn(1+n/8)), uint8(rng.Intn(2)), i)
			}
			return recs
		}},
		{"sorted", func() []rec {
			recs := make([]rec, n)
			for i := range recs {
				recs[i] = mkRec(i, 0, i)
			}
			return recs
		}},
		{"reversed", func() []rec {
			recs := make([]rec, n)
			for i := range recs {
				recs[i] = mkRec(n-i, 1, i)
			}
			return recs
		}},
		// The two tag orders over one key range: the production order, every
		// tag-0 record before every tag-1 record (the sort skips its tag
		// pass), and the mirror image, which must take it.
		{"staged", tagBlocks(n, false)},
		{"tags_descending", tagBlocks(n, true)},
		{"tiny", func() []rec {
			return []rec{mkRec(3, 1, 0), mkRec(1, 0, 1), mkRec(3, 0, 2)}
		}},
		{"empty", func() []rec { return nil }},
		// The radix sort's own corners: key shapes no generator above draws
		// (see shapedKey), tag columns that are constant and that use all
		// three values, and windows on both sides of the insertion cutoff.
		{"both_signs", shaped(n, 1, 1, n, 3)},
		{"int64_extremes", shaped(n, 2, 1, n, 3)},
		{"top_byte_only", shaped(n, 3, 1, 256, 3)},
		{"last_of_three_words", shaped(n, 4, 3, n, 3)},
		{"tags_all_0", shaped(n, 1, 2, n/4, 1)},
		{"tags_mixed_3", shaped(n, 0, 1, 5, 3)},
		{"below_cutoff", shaped(radixBelow-1, 1, 1, 9, 3)},
		{"at_cutoff", shaped(radixBelow, 1, 1, 9, 3)},
		{"above_cutoff", shaped(radixBelow+1, 2, 2, 9, 3)},
	}
}

// shaped draws n records with keys of the given shape and width from a
// range of keys values, tags from [0, tags).
func shaped(n, shape, kw, keys, tags int) func() []rec {
	return func() []rec {
		rng := rand.New(rand.NewSource(int64(31*shape + kw)))
		recs := make([]rec, n)
		for i := range recs {
			recs[i] = mkRecShaped(shape, kw, rng.Intn(keys), uint8(rng.Intn(tags)), i)
		}
		return recs
	}
}

// tagBlocks draws n records in two blocks, tag 0 then tag 1 (tag 1 first
// when descending), whose keys come from one shared range of n/4 values.
func tagBlocks(n int, descending bool) func() []rec {
	return func() []rec {
		rng := rand.New(rand.NewSource(3))
		recs := make([]rec, n)
		for i := range recs {
			tag := uint8(0)
			if (i >= n/3) != descending {
				tag = 1
			}
			recs[i] = mkRec(rng.Intn(1+n/4), tag, i)
		}
		return recs
	}
}

// fillRecCols loads an array-of-structs record set into a caller-acquired
// columnar set — the bridge between the retained []rec references and the
// columnar sort under test. The caller owns rc (acquires it and puts it
// back); a helper that returned a pooled buffer would leak it past its
// owner, which is exactly what repolint's poollifecycle analyzer flags.
func fillRecCols(rc *recCols, recs []rec) {
	for _, r := range recs {
		rc.append(r.key, r.tag, r.it.T, r.it.A)
	}
}

// dirtyPools seeds the record pools with garbage before a run under test:
// it takes a record set and a sort scratch from their pools, sizes them for
// rows records of key width kw, fills every column to capacity with
// sentinels (−1 in the rank vectors, so a read before a write panics
// instead of seeing a quiet zero) and puts them back. The scratch's keys
// and annots columns are the radix sort's two key vectors too, so a key
// word read before it is gathered sorts as junk. Pooling is memory reuse
// only, so the run that follows must produce the same bytes as one on
// fresh memory. (The puts clear the tuple columns, as in production.)
func dirtyPools(rows, kw int) {
	const junk = -0x5eed
	rc, sc := getRecCols(rows), getSortScratch()
	sc.ranks = ensureSlice(sc.ranks, 2*rows)
	sc.keys, sc.tags = ensureSlice(sc.keys, rows*kw), ensureSlice(sc.tags, rows)
	sc.tuples, sc.annots = ensureSlice(sc.tuples, rows), ensureSlice(sc.annots, rows)
	fillCap(sc.ranks, -1)
	fillCap(rc.keys, junk)
	fillCap(sc.keys, junk)
	fillCap(rc.tags, 0xAA)
	fillCap(sc.tags, 0xAA)
	fillCap(rc.tuples, relation.Tuple{junk})
	fillCap(sc.tuples, relation.Tuple{junk})
	fillCap(rc.annots, junk)
	fillCap(sc.annots, junk)
	putRecCols(rc)
	putSortScratch(sc)
}

// fillCap sets every element of s, up to its capacity, to v.
func fillCap[T any](s []T, v T) {
	s = s[:cap(s)]
	for i := range s {
		s[i] = v
	}
}

// colsChunk extracts chunk s of a sorted columnar set as []rec for
// comparison against the serial reference's chunks, re-encoding the flat
// key windows into the reference's key strings.
func colsChunk(rc *recCols, bounds []int, s int) []rec {
	if bounds[s] == bounds[s+1] {
		return nil
	}
	out := make([]rec, 0, bounds[s+1]-bounds[s])
	for i := bounds[s]; i < bounds[s+1]; i++ {
		out = append(out, rec{key: relation.EncodeValues(rc.key(i)...), tag: rc.tags[i], it: rc.item(i)})
	}
	return out
}

// TestSampleSortParityWithSerialRef is the tentpole guarantee: for every
// input shape, every data-plane width, and the record pools clean or
// seeded with garbage (dirtyPools), sortAndChop produces value-identical
// chunks and identical per-round cluster charges to the retained serial
// reference. The sort forks nothing; the width sweep pins that its output
// does not depend on the width.
func TestSampleSortParityWithSerialRef(t *testing.T) {
	const p, n = 16, 20000
	for _, in := range sortInputs(n) {
		t.Run(in.name, func(t *testing.T) {
			ref := mpc.NewCluster(p)
			refChunks := serialSortAndChopRef(ref, in.recs())
			refStats := ref.Snapshot()

			for _, dirty := range []bool{false, true} {
				for _, width := range []int{1, 2, 8} {
					prev := runtime.SetParallelism(width)
					c := mpc.NewCluster(p)
					recs := in.recs()
					if dirty && len(recs) > 0 {
						dirtyPools(len(recs), len(recs[0].key)/8)
					}
					rc := getRecCols(len(recs))
					fillRecCols(rc, recs)
					bounds := sortAndChop(c, rc)
					gotStats := c.Snapshot()

					for s := 0; s < p; s++ {
						if !reflect.DeepEqual(refChunks[s], colsChunk(rc, bounds, s)) {
							t.Fatalf("dirty=%v width %d: chunk %d differs: ref %d recs, got %d recs",
								dirty, width, s, len(refChunks[s]), bounds[s+1]-bounds[s])
						}
					}
					if !reflect.DeepEqual(refStats, gotStats) {
						t.Fatalf("dirty=%v width %d: charges differ:\nref %+v\ngot %+v",
							dirty, width, refStats, gotStats)
					}
					putRecCols(rc)
					runtime.SetParallelism(prev)
				}
			}
		})
	}
}

// TestSampleSortPropertyRandomShapes is the property test: on random sizes,
// key ranges, key shapes and widths (shapedKey) and tag mixes, the rank
// sort must equal the unique stable (key, tag) sort of the input. Trials
// alternate the two tag orders: staged in blocks of ascending tag, as the
// production callers stage them, and drawn at random.
func TestSampleSortPropertyRandomShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 30; trial++ {
		n := rng.Intn(3 << 12)
		if trial%5 == 4 {
			n = radixBelow - 2 + rng.Intn(5) // straddle the insertion cutoff
		}
		keys := 1 + rng.Intn(1+n/(1+rng.Intn(64)))
		shape, kw, tags := trial%keyShapes, 1+trial%3, 1+rng.Intn(3)
		staged := trial%2 == 0
		recs := make([]rec, n)
		for i := range recs {
			tag := rng.Intn(tags)
			if staged {
				tag = i * tags / n
			}
			recs[i] = mkRecShaped(shape, kw, rng.Intn(keys), uint8(tag), i)
		}
		want := append([]rec(nil), recs...)
		sort.SliceStable(want, func(i, j int) bool { return recLess(want[i], want[j]) })

		rc := getRecCols(len(recs))
		fillRecCols(rc, recs)
		sampleSortCols(rc)

		got := make([]rec, rc.len())
		for i := range got {
			got[i] = rec{key: relation.EncodeValues(rc.key(i)...), tag: rc.tags[i], it: rc.item(i)}
		}
		putRecCols(rc)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (n=%d keys=%d shape=%d kw=%d tags=%d staged=%v): the rank sort is not the stable sort",
				trial, n, keys, shape, kw, tags, staged)
		}
	}
}

// TestSampleSplittersAreSortedAndDistinct pins the rank vector the chunks
// are cut from: over one heavy key, two keys, a hundred and all distinct,
// it is a permutation of the rows that is non-decreasing in (key, tag),
// equal records in input order.
func TestSampleSplittersAreSortedAndDistinct(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const n = 1 << 14
	for _, keys := range []int{1, 2, 100, n} {
		rc := getRecCols(n)
		for i := 0; i < n; i++ {
			r := mkRec(rng.Intn(keys), uint8(rng.Intn(2)), i)
			rc.append(r.key, r.tag, r.it.T, r.it.A)
		}
		sc := getSortScratch()
		order := rankSort(rc, sc)
		seen := make([]bool, n)
		for j, i := range order {
			if seen[i] {
				t.Fatalf("keys=%d: row %d ranked twice", keys, i)
			}
			seen[i] = true
			if j == 0 {
				continue
			}
			prev := order[j-1]
			if rc.less(i, prev) || !rc.less(prev, i) && prev > i {
				t.Fatalf("keys=%d: rank %d holds row %d after row %d", keys, j, i, prev)
			}
		}
		putSortScratch(sc)
		putRecCols(rc)
	}
}

// TestChopCeilDivisionInvariant: the old code silently clamped a record
// past the last server; that clamp is now a panic, and this test proves the
// panic is unreachable from ceil division — the invariant a future chunking
// change would have to re-establish.
func TestChopCeilDivisionInvariant(t *testing.T) {
	c := mpc.NewCluster(2)
	recs := []rec{mkRec(1, 0, 0), mkRec(2, 0, 1), mkRec(3, 0, 2)}
	for n := 0; n <= 64; n++ {
		for p := 1; p <= 8; p++ {
			chunk := (n + p - 1) / p
			if chunk == 0 {
				chunk = 1
			}
			if n > 0 && (n-1)/chunk >= p {
				t.Fatalf("ceil division violated: n=%d p=%d", n, p)
			}
		}
	}
	_ = chop(c, recs)
	if c.RoundMax(1) != 2 {
		t.Fatalf("chop charged %d, want 2", c.RoundMax(1))
	}
}

// TestEmptyInputsChargeNoRounds is the round-inflation regression test:
// Lookup, DistinctByKey, MultiNumbering and SemiJoin on empty inputs must
// short-circuit — no sort round, no coordinator exchange — while the
// non-empty paths keep their documented round counts.
func TestEmptyInputsChargeNoRounds(t *testing.T) {
	c := mpc.NewCluster(4)
	empty := mpc.NewDist(c, relation.NewSchema(1))
	full := mpc.FromRelation(c, func() *relation.Relation {
		r := relation.New("D", relation.NewSchema(1))
		for i := 0; i < 8; i++ {
			r.Add(relation.Value(i))
		}
		return r
	}())

	key := []relation.Attr{1}

	if got := Lookup(empty, key, full, key, empty.Schema, keepFound); got.Size() != 0 {
		t.Fatalf("Lookup(empty) size = %d", got.Size())
	}
	if got := DistinctByKey(empty, key); got.Size() != 0 {
		t.Fatalf("DistinctByKey(empty) size = %d", got.Size())
	}
	if got := MultiNumbering(empty, key, 99); got.Size() != 0 {
		t.Fatalf("MultiNumbering(empty) size = %d", got.Size())
	}
	if got := SemiJoin(empty, key, empty, key); got.Size() != 0 {
		t.Fatalf("SemiJoin(empty, empty) size = %d", got.Size())
	}
	// An empty probe with a NON-empty directory must not pay for sorting
	// the directory either.
	if got := SemiJoin(empty, key, full, key); got.Size() != 0 {
		t.Fatalf("SemiJoin(empty, full) size = %d", got.Size())
	}
	if got := AntiJoin(empty, key, full, key); got.Size() != 0 {
		t.Fatalf("AntiJoin(empty, full) size = %d", got.Size())
	}
	if c.Rounds() != 0 {
		t.Fatalf("empty-input primitives charged %d rounds, want 0", c.Rounds())
	}

	// Non-empty reference counts: sortAndChop is 1 round, the boundary
	// exchange 2 (gather to the coordinator + reply).
	DistinctByKey(full, key)
	if c.Rounds() != 3 {
		t.Fatalf("DistinctByKey rounds = %d, want 3", c.Rounds())
	}
	Lookup(full, key, full.FilterLocal(func(mpc.Item) bool { return false }), key, full.Schema, keepFound)
	if c.Rounds() != 6 {
		t.Fatalf("Lookup rounds = %d, want 3+3", c.Rounds())
	}
}

// TestSampleSortWidthSweepDeterminism re-sorts the same zipf input at every
// width (and the pools clean and dirtied) and demands byte-identical chunk
// tables — the cheap standing sweep the engine catalog test mirrors at
// full scale.
func TestSampleSortWidthSweepDeterminism(t *testing.T) {
	const p, n = 8, 1 << 14
	mk := sortInputs(n)[2] // zipfish
	var ref [][]rec
	for _, dirty := range []bool{false, true} {
		for _, width := range []int{1, 2, 4, 8} {
			prev := runtime.SetParallelism(width)
			c := mpc.NewCluster(p)
			recs := mk.recs()
			if dirty {
				dirtyPools(len(recs), 1)
			}
			rc := getRecCols(len(recs))
			fillRecCols(rc, recs)
			bounds := sortAndChop(c, rc)
			got := make([][]rec, p)
			for s := 0; s < p; s++ {
				got[s] = colsChunk(rc, bounds, s)
			}
			putRecCols(rc)
			runtime.SetParallelism(prev)
			if ref == nil {
				ref = got
				continue
			}
			if !reflect.DeepEqual(ref, got) {
				t.Fatal(fmt.Sprintf("dirty=%v width %d chunks differ from reference", dirty, width))
			}
		}
	}
}
