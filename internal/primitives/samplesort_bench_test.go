package primitives

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/mpc"
	"repro/internal/relation"
)

// BenchmarkSampleSort vs BenchmarkSerialSortRef: the rank-vector radix sort
// against the retained coordinator sort, on the same record sets. Both are
// in the counted `make bench` family; the radix sort must win ns/op at
// IN = 2^17. BenchmarkLookup covers the primitive end-to-end (record
// collection, sort, boundary propagation, combine).

const benchSortP = 64

// benchRecs draws n records with uniform or skewed keys. Their tags
// alternate (i%2), which only the sort's fallback tag pass handles.
func benchRecs(n int, skewed bool, seed int64) []rec {
	rng := rand.New(rand.NewSource(seed))
	recs := make([]rec, n)
	for i := range recs {
		k := rng.Intn(n)
		if skewed {
			k = rng.Intn(1 + rng.Intn(1+n/8))
		}
		recs[i] = mkRec(k, uint8(i%2), i)
	}
	return recs
}

// benchSortShapes are the record sets the sort benchmarks run on: uniform
// and skewed keys with alternating tags, and the production order, staged
// (tag-0 block, then tag-1 block, uniform keys shared across both).
func benchSortShapes() []struct {
	name string
	recs func(n int) []rec
} {
	return []struct {
		name string
		recs func(n int) []rec
	}{
		{"uniform", func(n int) []rec { return benchRecs(n, false, 7) }},
		{"skewed", func(n int) []rec { return benchRecs(n, true, 7) }},
		{"staged", func(n int) []rec { return tagBlocks(n, false)() }},
	}
}

// The cluster is a shared fixture (created outside the measured loop):
// both benchmarks measure the sort-and-chop path itself — record staging,
// sorting, chunking, charging — not cluster construction.

func BenchmarkSampleSort(b *testing.B) {
	for _, n := range []int{1 << 14, 1 << 17} {
		for _, shape := range benchSortShapes() {
			base := shape.recs(n)
			c := mpc.NewCluster(benchSortP)
			b.Run(fmt.Sprintf("%s/n=%d", shape.name, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					rc, sc := getRecCols(n), getSortScratch()
					for _, r := range base {
						rc.append(r.key, r.tag)
					}
					sortAndChop(c, rc, sc)
					putSortScratch(sc)
					putRecCols(rc)
				}
			})
		}
	}
}

func BenchmarkSerialSortRef(b *testing.B) {
	for _, n := range []int{1 << 14, 1 << 17} {
		for _, shape := range benchSortShapes() {
			base := shape.recs(n)
			c := mpc.NewCluster(benchSortP)
			b.Run(fmt.Sprintf("%s/n=%d", shape.name, n), func(b *testing.B) {
				b.ReportAllocs()
				recs := make([]rec, n)
				for i := 0; i < b.N; i++ {
					copy(recs, base)
					serialSortAndChopRef(c, recs)
				}
			})
		}
	}
}

func BenchmarkLookup(b *testing.B) {
	for _, n := range []int{1 << 14, 1 << 17} {
		c := mpc.NewCluster(benchSortP)
		rng := rand.New(rand.NewSource(3))
		x := relation.New("X", relation.NewSchema(1, 2))
		for i := 0; i < n; i++ {
			x.Add(relation.Value(rng.Intn(n/4)), relation.Value(i))
		}
		d := relation.New("D", relation.NewSchema(1))
		for k := 0; k < n/4; k++ {
			d.AddAnnotated(int64(k), relation.Value(k))
		}
		dx, dd := mpc.FromRelation(c, x), mpc.FromRelation(c, d)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				AttachAnnot(dx, []relation.Attr{1}, dd, []relation.Attr{1}, relation.CountRing, true)
			}
		})
	}
}

// BenchmarkSemiJoin_Duplicates is the semi-join's worst case for a local
// combiner that runs on the sorted order: every key d holds on a server it
// holds exactly 32 times there, so the rank sort takes 32 d records for each one
// the chunks keep (a hash index per part, the combiner it replaced, staged
// only the one). x draws uniform keys from twice d's key range, so half
// its rows are kept.
func BenchmarkSemiJoin_Duplicates(b *testing.B) {
	const dup = 32
	for _, n := range []int{1 << 14, 1 << 17} {
		c := mpc.NewCluster(benchSortP)
		rng := rand.New(rand.NewSource(5))
		keys := n / 16
		x := mpc.NewDist(c, relation.NewSchema(1, 2))
		for i := 0; i < n; i++ {
			x.Parts[i%benchSortP].Append(relation.Tuple{relation.Value(rng.Intn(2 * keys)), relation.Value(i)}, 1)
		}
		d := mpc.NewDist(c, relation.NewSchema(1))
		for s := range d.Parts {
			rows := make([]relation.Value, 0, n/benchSortP)
			for _, k := range rng.Perm(keys)[:n/benchSortP/dup] {
				for range dup {
					rows = append(rows, relation.Value(k))
				}
			}
			rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
			for _, k := range rows {
				d.Parts[s].Append(relation.Tuple{k}, 1)
			}
		}
		key := []relation.Attr{1}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				SemiJoin(x, key, d, key)
			}
		})
	}
}
