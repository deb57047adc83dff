package primitives

import (
	"math/rand"
	goruntime "runtime"
	"runtime/debug"
	"slices"
	"testing"

	"repro/internal/mpc"
	"repro/internal/relation"
	"repro/internal/runtime"
)

// TestLookupAllocCeiling: a steady-state Lookup allocates per part — each
// output part reserved once for the x records of its chunk — and per call,
// never per probe or per key: keys are windows into the record set's flat
// key column, and the record set and sort scratch are pooled. The count is
// the same at 16 384 and 131 072 probes, under a ceiling, and the bytes
// stay under 1.5 times the output's own two values and annotation per row,
// so a part grown by doubling fails twice over: its allocations grow with
// the data, and its copies and slack overshoot the bytes. Measured 45 at
// p = 16. The collector is off while counting, as in
// TestSemiJoinAllocCeiling.
func TestLookupAllocCeiling(t *testing.T) {
	const p, perPart = 16, 8
	if raceEnabled() {
		t.Skip("the race detector's sync.Pool drops buffers at random: the count would measure the detector")
	}
	prev := runtime.SetParallelism(1)
	defer runtime.SetParallelism(prev)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	key := []relation.Attr{1}
	counts := map[int]uint64{}
	for _, n := range []int{16384, 131072} {
		distinct := n / 4
		c := mpc.NewCluster(p)
		rng := rand.New(rand.NewSource(3))
		x := relation.New("X", relation.NewSchema(1, 2))
		for i := 0; i < n; i++ {
			x.Add(relation.Value(rng.Intn(distinct)), relation.Value(i))
		}
		d := relation.New("D", relation.NewSchema(1))
		for k := 0; k < distinct; k++ {
			d.AddAnnotated(int64(k), relation.Value(k))
		}
		dx, dd := mpc.FromRelation(c, x), mpc.FromRelation(c, d)
		attach := func() {
			AttachAnnot(dx, key, dd, key, relation.CountRing, true)
		}
		var bytes uint64
		counts[n], bytes = steadyAllocs(attach)
		if counts[n] > perPart*p {
			t.Fatalf("n=%d: Lookup allocates %d per run, ceiling %d — the record pool has regressed", n, counts[n], perPart*p)
		}
		if out := uint64(n) * 3 * 8; bytes > out*3/2 {
			t.Fatalf("n=%d: Lookup allocates %d bytes per run for %d bytes of output — a part grows by doubling", n, bytes, out)
		}
	}
	if counts[16384] != counts[131072] {
		t.Fatalf("Lookup allocates %d per run at 16 384 probes and %d at 131 072 — output parts grow with the data",
			counts[16384], counts[131072])
	}
}

// TestSampleSortAllocCeiling pins the rank-vector sort: sorting a pooled
// record set in steady state allocates nothing per record — not a record
// scratch buffer (the old []rec path allocated one every call), nor a rank
// or key vector. The count is the same at 8 192 and 131 072 records, under
// a ceiling, and the bytes stay under one per record at the larger size,
// so a vector regrown on every call fails the test even though its count
// does not grow. Measured 0 allocations and 0 bytes per run. The collector
// is off while counting, as in TestSemiJoinAllocCeiling.
func TestSampleSortAllocCeiling(t *testing.T) {
	const ceiling = 64
	if raceEnabled() {
		t.Skip("the race detector's sync.Pool drops buffers at random: the count would measure the detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	counts := map[int]uint64{}
	for _, n := range []int{8192, 131072} {
		base := benchRecs(n, true, 7)
		sortOnce := func() {
			rc := getRecCols(n)
			for _, r := range base {
				rc.append(r.key, r.tag, r.it.T, r.it.A)
			}
			sampleSortCols(rc)
			putRecCols(rc)
		}
		var bytes uint64
		counts[n], bytes = steadyAllocs(sortOnce)
		if counts[n] > ceiling {
			t.Fatalf("n=%d: the sort allocates %d per run, ceiling %d — the sort scratch pool has regressed",
				n, counts[n], ceiling)
		}
		if bytes >= uint64(n) {
			t.Fatalf("n=%d: the sort allocates %d bytes per run — a vector is regrown on every call", n, bytes)
		}
	}
	if counts[8192] != counts[131072] {
		t.Fatalf("the sort allocates %d per run at 8 192 records and %d at 131 072 — it allocates with the data",
			counts[8192], counts[131072])
	}
}

// steadyAllocs returns the allocations and bytes per call of f in steady
// state: on one P, as testing.AllocsPerRun counts, after one call that
// warms the pools there, averaged over ten calls.
func steadyAllocs(f func()) (count, bytes uint64) {
	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(1))
	f()
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	const runs = 10
	for i := 0; i < runs; i++ {
		f()
	}
	goruntime.ReadMemStats(&after)
	return (after.Mallocs - before.Mallocs) / runs, (after.TotalAlloc - before.TotalAlloc) / runs
}

// raceEnabled reports whether the test binary was built with -race.
func raceEnabled() bool {
	bi, _ := debug.ReadBuildInfo()
	return bi != nil && slices.Contains(bi.Settings, debug.BuildSetting{Key: "-race", Value: "true"})
}

// TestSemiJoinAllocCeiling: a steady-state semi-join allocates per part —
// each output part reserved once for the x records of its chunk — and per
// call, never per row: the count is the same at 2 048 and 65 536 rows per
// side. An output part grown by doubling allocates log n times, which
// breaks the equality before any ceiling is reached. Measured 60 at p = 16
// (the two index arrays' pool round-trips are most of it). The collector
// is off while counting: a collection empties the pools, and the refill
// would be counted as the data's.
func TestSemiJoinAllocCeiling(t *testing.T) {
	const p, perPart = 16, 8
	if raceEnabled() {
		t.Skip("the race detector's sync.Pool drops buffers at random: the count would measure the detector")
	}
	prev := runtime.SetParallelism(1)
	defer runtime.SetParallelism(prev)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	key := []relation.Attr{1}
	counts := map[int]float64{}
	for _, n := range []int{2048, 65536} {
		rng := rand.New(rand.NewSource(int64(n)))
		x := relation.New("X", relation.NewSchema(1, 2))
		d := relation.New("D", relation.NewSchema(1))
		for i := 0; i < n; i++ {
			x.Add(relation.Value(rng.Intn(n)), relation.Value(i))
			d.Add(relation.Value(rng.Intn(n)))
		}
		c := mpc.NewCluster(p)
		dx, dd := mpc.FromRelation(c, x), mpc.FromRelation(c, d)
		kept := 0
		run := func() { kept = SemiJoin(dx, key, dd, key).Size() }
		run() // warm the record, sort and index pools
		counts[n] = testing.AllocsPerRun(10, run)
		if kept == 0 || kept == n {
			t.Fatalf("n=%d: the semi-join kept %d of %d rows — the test no longer exercises hits and misses", n, kept, n)
		}
		if counts[n] > perPart*p {
			t.Fatalf("n=%d: SemiJoin allocates %.0f per run, ceiling %d", n, counts[n], perPart*p)
		}
	}
	if counts[2048] != counts[65536] {
		t.Fatalf("SemiJoin allocates %.0f per run at 2 048 rows per side and %.0f at 65 536 — output parts grow with the data",
			counts[2048], counts[65536])
	}
}

// aggAllocDist builds p parts of rows rows each over schema (1, 2): keys
// from rows/4 values per part (so every key repeats), every row annotated.
func aggAllocDist(p, rows int) *mpc.Dist {
	d := mpc.NewDist(mpc.NewCluster(p), relation.NewSchema(1, 2))
	rng := rand.New(rand.NewSource(int64(rows)))
	for s := range d.Parts {
		for i := 0; i < rows; i++ {
			d.Parts[s].Append(relation.Tuple{relation.Value(rng.Intn(rows / 4)), relation.Value(i)}, int64(1+rng.Intn(3)))
		}
	}
	return d
}

// TestSumByKeyAllocCeiling is the allocation-regression guard for the
// word-keyed combiner: SumByKey and CountByKey allocate per part — the
// combined parts, the shuffle's destination parts, the annotation view's
// headers — and NEVER per row or per key. The string-keyed combiner cost
// one key string per row plus a projected tuple and two map entries per
// key; here an 8× larger input must fit under the same fixed per-part
// budget.
func TestSumByKeyAllocCeiling(t *testing.T) {
	const p, perPart = 8, 24 // allocations allowed per part, whatever the row count
	prev := runtime.SetParallelism(1)
	defer runtime.SetParallelism(prev)
	key := []relation.Attr{1}
	for _, rows := range []int{500, 4000} {
		d := aggAllocDist(p, rows)
		for name, run := range map[string]func(){
			"SumByKey":   func() { SumByKey(d, key, relation.CountRing, 7) },
			"CountByKey": func() { CountByKey(d, key, 7) },
		} {
			run() // warm the index pool
			if got := testing.AllocsPerRun(10, run); got > perPart*p {
				t.Fatalf("rows=%d: %s allocates %.0f per run, ceiling %d — per-row or per-key allocations are back",
					rows, name, got, perPart*p)
			}
		}
	}
}

// TestDistinctByKeyAllocCeiling: the local dedup stages the rows that open
// a group straight into the pooled record set, whose key column holds the
// kept projections — nothing is allocated per key, only the output parts
// (grown by doubling).
func TestDistinctByKeyAllocCeiling(t *testing.T) {
	const p, perPart = 8, 24
	prev := runtime.SetParallelism(1)
	defer runtime.SetParallelism(prev)
	for _, rows := range []int{500, 4000} {
		d := aggAllocDist(p, rows)
		run := func() { DistinctByKey(d, []relation.Attr{1}) }
		run() // warm the record and index pools
		if got := testing.AllocsPerRun(10, run); got > perPart*p {
			t.Fatalf("rows=%d: DistinctByKey allocates %.0f per run, ceiling %d — per-key allocations are back",
				rows, got, perPart*p)
		}
	}
}
