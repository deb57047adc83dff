package mpc

import (
	"fmt"
	"testing"

	"repro/internal/relation"
)

// BenchmarkRoute vs BenchmarkExchange: the old tuple-at-a-time route
// (serialRouteRef, kept in exchange_test.go) against the batched
// plan/scatter exchange over columnar parts, on the same inputs and
// routing shapes. Run them with `make bench` (counted, benchstat-friendly):
//
//	benchstat <(old) <(new)   # or compare the Route/Exchange rows directly
//
// The batched plane must win on allocations (destination columns are
// allocated once at exact capacity, plan scratch is pooled, hash shuffles
// never build per-item keys or fan-out slices) and ns/op at IN ≥ 10^5.

const benchP = 64

func benchShapes(p int) []struct {
	name string
	dest func(s int, it Item) []int
} {
	return []struct {
		name string
		dest func(s int, it Item) []int
	}{
		{"shuffle", func(_ int, it Item) []int {
			return []int{int(Hash64(relation.KeyAt(it.T, []int{0}), 7) % uint64(p))}
		}},
		{"replicate2", func(_ int, it Item) []int {
			v := int(it.T[1])
			return []int{v % p, (v*7 + 1) % p}
		}},
	}
}

func benchExchangeDist(b *testing.B, n int) *Dist {
	b.Helper()
	c := NewCluster(benchP)
	return exchangeTestDist(c, n, 42)
}

func BenchmarkRoute(b *testing.B) {
	for _, n := range []int{1 << 14, 1 << 17} {
		d := benchExchangeDist(b, n)
		for _, shape := range benchShapes(benchP) {
			b.Run(fmt.Sprintf("%s/n=%d", shape.name, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					serialRouteRef(d, d.Schema, shape.dest)
				}
			})
		}
	}
}

// BenchmarkExchange drives the two routing shapes through the public API
// the algorithms use: ShuffleByKey takes the exchange's single-destination
// path (no per-item key string, no per-item fan-out slice), ReplicateAppend
// the replicating path (destinations appended to the exchange's per-task
// scratch, so allocs/op is O(tasks), not O(rows) as it was through
// ReplicateBy's slice per row). Destinations are identical to
// BenchmarkRoute's.
func BenchmarkExchange(b *testing.B) {
	for _, n := range []int{1 << 14, 1 << 17} {
		d := benchExchangeDist(b, n)
		b.Run(fmt.Sprintf("shuffle/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				d.ShuffleByKey([]int{0}, 7)
			}
		})
		replicate2 := func(it Item, dst []int) []int {
			v := int(it.T[1])
			return append(dst, v%benchP, (v*7+1)%benchP)
		}
		b.Run(fmt.Sprintf("replicate2/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				d.ReplicateAppend(replicate2)
			}
		})
	}
}

// BenchmarkFromRelation measures the columnar round-robin placement: one
// strided pass per server's tuple column, no Item structs, no annotation
// column for unannotated relations.
func BenchmarkFromRelation(b *testing.B) {
	for _, n := range []int{1 << 14, 1 << 17} {
		r := relation.New("R", relation.NewSchema(1, 2))
		rng := NewRng(42)
		for i := 0; i < n; i++ {
			r.Add(relation.Value(rng.Intn(n)), relation.Value(i))
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				FromRelation(NewCluster(benchP), r)
			}
		})
	}
}
