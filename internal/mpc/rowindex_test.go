package mpc

import (
	"fmt"
	"math"
	stdruntime "runtime"
	"testing"

	"repro/internal/relation"
	"repro/internal/runtime"
)

// keyColumns returns one row per key, each row holding its key words at
// columns 0 and up.
func keyColumns(keys [][]relation.Value) Columns {
	var c Columns
	for _, k := range keys {
		c.Append(k, 1)
	}
	return c
}

// probeLength returns the mean and the largest displacement of the occupied
// slots from their home slots, in slots.
func probeLength(ix *RowIndex) (mean float64, longest int) {
	mask := len(ix.slots) - 1
	occupied, total := 0, 0
	for slot := range ix.slots {
		if ix.slots[slot] == 0 {
			continue
		}
		home := int(slotHash(ix.cols.Tuple(int(ix.slots[slot])-1), ix.pos)) & mask
		d := (slot - home) & mask
		occupied++
		total += d
		longest = max(longest, d)
	}
	if occupied == 0 {
		return 0, 0
	}
	return float64(total) / float64(occupied), longest
}

// TestRowIndexProbeLength bounds linear probing on structured key sets —
// sequential, strided by powers of two, negative, two-word grid keys, and
// keys that all fell into one class of the routing hash, which is what one
// server holds after a hash exchange. A mixer that leaves a key's low bits
// alone clusters these, so every set must spread: mean displacement at most
// one slot, none more than 32.
func TestRowIndexProbeLength(t *testing.T) {
	for _, n := range []int{1000, 4096} {
		sets := map[string][][]relation.Value{}
		for i := 0; i < n; i++ {
			v := relation.Value(i)
			sets["sequential"] = append(sets["sequential"], []relation.Value{v})
			sets["stride 2^8"] = append(sets["stride 2^8"], []relation.Value{v << 8})
			sets["stride 2^16"] = append(sets["stride 2^16"], []relation.Value{v << 16})
			sets["stride 2^32"] = append(sets["stride 2^32"], []relation.Value{v << 32})
			sets["negative"] = append(sets["negative"], []relation.Value{-v - 1})
			sets["grid"] = append(sets["grid"], []relation.Value{v % 64, v / 64})
		}
		pos := []int{0}
		for v := relation.Value(0); len(sets["one routing class"]) < n; v++ {
			if HashTupleAt(relation.Tuple{v}, pos, 3)%64 == 0 {
				sets["one routing class"] = append(sets["one routing class"], []relation.Value{v})
			}
		}
		for name, keys := range sets {
			cols := keyColumns(keys)
			ix := IndexRows(&cols, []int{0, 1}[:len(keys[0])])
			if ix.Groups() != n {
				t.Fatalf("n=%d %s: %d groups", n, name, ix.Groups())
			}
			mean, longest := probeLength(&ix)
			if mean > 1 || longest > 32 {
				t.Errorf("n=%d %s: mean displacement %.2f, longest %d", n, name, mean, longest)
			}
			ix.Release()
		}
	}
}

// TestRowIndexConcurrentLookups probes one built index from many tasks at
// once, as the routers of a binary join share the heavy directory's index:
// every lookup must agree with a serial one, and under -race none may write
// index state.
func TestRowIndexConcurrentLookups(t *testing.T) {
	rng := NewRng(41)
	cols := randomColumns(rng, 3000, 3, 200, false)
	pos := []int{2, 0}
	ix := IndexRows(&cols, pos)
	defer ix.Release()
	want := make([]int, cols.Len())
	for i := range want {
		want[i] = ix.First(cols.Tuple(i), pos)
	}
	for _, width := range []int{2, 8} {
		prev := runtime.SetParallelism(width)
		const tasks = 16
		runtime.Fork(tasks, func(task int) {
			for i := task; i < cols.Len(); i += tasks {
				r := ix.First(cols.Tuple(i), pos)
				if r != want[i] {
					t.Errorf("width %d: row %d finds %d, serially %d", width, i, r, want[i])
					return
				}
				for ; r >= 0 && r < i; r = ix.Next(r) {
				}
				if r != i {
					t.Errorf("width %d: row %d is missing from its chain", width, i)
					return
				}
				if ix.First(relation.Tuple{-1, 0, -1}, pos) != -1 {
					t.Errorf("width %d: an absent key hit", width)
					return
				}
			}
		})
		runtime.SetParallelism(prev)
	}
}

// BenchmarkRowIndex times the index on its own: building it, and probing
// it with keys that all hit or all miss, for one- and two-word keys. Rows
// draw their words from a domain of n values, so a one-word key repeats
// about 1.6 times; missing keys come from a disjoint range. ns/probe (or
// ns/row for the build) is the figure to compare.
func BenchmarkRowIndex(b *testing.B) {
	for _, words := range []int{1, 2} {
		for _, n := range []int{4096, 32768, 131072} {
			rng := NewRng(uint64(n))
			cols := randomColumns(rng, n, 2, n, false)
			misses := randomColumns(rng, n, 2, n, false)
			for i := range misses.values {
				misses.values[i] += math.MaxInt32
			}
			pos := []int{0, 1}[:words]
			name := fmt.Sprintf("words=%d/n=%d", words, n)
			b.Run("build/"+name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					ix := IndexRows(&cols, pos)
					ix.Release()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/row")
			})
			for _, probe := range []struct {
				name string
				keys *Columns
			}{{"hit", &cols}, {"miss", &misses}} {
				b.Run(probe.name+"/"+name, func(b *testing.B) {
					ix := IndexRows(&cols, pos)
					defer ix.Release()
					sum := 0
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						for r := 0; r < n; r++ {
							sum += ix.First(probe.keys.Tuple(r), pos)
						}
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/probe")
					benchSink = sum
				})
			}
		}
	}
}

// benchSink keeps the probes' results alive.
var benchSink int

// TestPoolRecyclesInPlace: a slice drawn from a Pool and resized has the
// asked length whether it is fresh, recycled smaller than asked, or
// recycled holding entries from its last owner; its owner grows it in
// place behind the pointer it puts back.
func TestPoolRecyclesInPlace(t *testing.T) {
	var pool Pool[[]int32]
	for _, n := range []int{0, 5, 64, 3} {
		s := pool.Get()
		if *s = Resize(*s, n); len(*s) != n {
			t.Fatalf("Resize to %d: len %d cap %d", n, len(*s), cap(*s))
		}
		for i := 0; i < 2*n+1; i++ {
			*s = append(*s, int32(i))
		}
		pool.Put(s)
	}
}

// TestPoolOutlivesCollections: the free list is an ordinary live slice,
// so collections leave its values where they were — the next Get returns
// the pointer put last.
func TestPoolOutlivesCollections(t *testing.T) {
	var pool Pool[[]int32]
	first, last := pool.Get(), pool.Get()
	pool.Put(first)
	pool.Put(last)
	stdruntime.GC()
	stdruntime.GC()
	gotLast, gotFirst := pool.Get(), pool.Get()
	pool.Put(gotFirst)
	pool.Put(gotLast)
	if gotLast != last || gotFirst != first {
		t.Fatalf("after two collections Get returned %p then %p, want %p (put last) then %p", gotLast, gotFirst, last, first)
	}
}

// rowIndexRoundTrip builds and releases an index over 1 000 rows.
func rowIndexRoundTrip() func() {
	var cols Columns
	for i := 0; i < 1000; i++ {
		cols.Append(relation.Tuple{relation.Value(i % 97), relation.Value(i)}, 1)
	}
	pos := []int{0}
	return func() {
		ix := IndexRows(&cols, pos)
		benchSink = ix.Groups()
		ix.Release()
	}
}

// TestRowIndexRoundTripAllocatesNothing: once the pool is warm, building
// and releasing an index takes its arrays from the pool and gives them
// back without one allocation — the pool boxes nothing on Put.
func TestRowIndexRoundTripAllocatesNothing(t *testing.T) {
	roundTrip := rowIndexRoundTrip()
	roundTrip() // warm the pool
	if got := testing.AllocsPerRun(100, roundTrip); got != 0 {
		t.Fatalf("IndexRows + Release on a warm pool allocates %.0f per call, want 0", got)
	}
}

// TestRowIndexPoolSurvivesCollections: two collections before every round
// trip leave the pool's arrays in place, so a round trip still allocates
// nothing — a pool the collector empties would rebuild them each time.
func TestRowIndexPoolSurvivesCollections(t *testing.T) {
	roundTrip := rowIndexRoundTrip()
	roundTrip() // warm the pool
	collected := func() {
		stdruntime.GC()
		stdruntime.GC()
		roundTrip()
	}
	if got := testing.AllocsPerRun(20, collected); got != 0 {
		t.Fatalf("IndexRows + Release after two collections allocates %.0f per call, want 0", got)
	}
}
