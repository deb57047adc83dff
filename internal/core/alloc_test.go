package core

import (
	"testing"

	"repro/internal/mpc"
	"repro/internal/relation"
	"repro/internal/runtime"
)

// TestLocalJoinEmitAllocCeiling is the allocation-regression guard for the
// output path: a per-server local join whose result is then counted and
// tabled allocates per part — the result buffers, the stage bindings, the
// table's row headers — and NEVER per row. The old path cost four
// allocations per result row (tuple, key strings, projected tuple, buffer
// doublings); here an 8× larger join must fit under the same fixed
// per-part budget.
func TestLocalJoinEmitAllocCeiling(t *testing.T) {
	const p, perPart = 8, 30 // allocations allowed per part, whatever the row count
	prev := runtime.SetParallelism(1)
	defer runtime.SetParallelism(prev)

	schemaA, schemaB := relation.NewSchema(1, 2), relation.NewSchema(2, 3)
	out := schemaA.Union(schemaB)
	stages := []joinStage{
		{src: []int{0, 1}, dst: []int{0, 1}},
		{keyPos: []int{0}, keyOut: []int{1}, src: []int{1}, dst: []int{2}},
	}
	for _, rows := range []int{500, 4000} {
		c := mpc.NewCluster(p)
		a, b := mpc.NewDist(c, schemaA), mpc.NewDist(c, schemaB)
		rng := mpc.NewRng(uint64(rows))
		for s := 0; s < p; s++ {
			a.Parts[s] = *fuzzPart(rng, rows, 2, rows/4, false)
			b.Parts[s] = *fuzzPart(rng, rows, 2, rows/4, true)
		}
		results := 0
		run := func() {
			res := mpc.NewDist(c, out)
			for s := 0; s < p; s++ {
				indexJoin(&res.Parts[s], len(out), stagesAt(stages, []*mpc.Dist{a, b}, s), nil, relation.CountRing)
			}
			results = res.Rel().Size()
		}
		run() // warm the index pool
		got := testing.AllocsPerRun(10, run)
		if results < 2*rows*p {
			t.Fatalf("rows=%d: join produced only %d results — the test no longer exercises the output path", rows, results)
		}
		if got > perPart*p {
			t.Fatalf("rows=%d (%d results): local join + table allocates %.0f per run, ceiling %d — per-row allocations are back",
				rows, results, got, perPart*p)
		}
	}
}

// TestFoldIntoAllocCeiling: folding a relation into its host indexes the
// folded side once — a flat copy plus the pooled index arrays — and sizes
// the result once; nothing is allocated per host row or per key. The
// string-keyed version built one key string per row of either side; here
// an 8× larger input must fit the same fixed budget.
func TestFoldIntoAllocCeiling(t *testing.T) {
	const ceiling = 16 // allocations per call, whatever the row count
	for _, rows := range []int{500, 4000} {
		rng := mpc.NewRng(uint64(rows))
		host := relation.New("host", relation.NewSchema(1, 2))
		for i := 0; i < rows; i++ {
			host.AddAnnotated(int64(1+rng.Intn(3)), relation.Value(rng.Intn(rows/2)), relation.Value(i))
		}
		small := relation.New("small", relation.NewSchema(1))
		for k := 0; k < rows/4; k++ { // half of the host's keys: the rest miss
			small.AddAnnotated(int64(1+rng.Intn(3)), relation.Value(2*k))
		}
		kept := 0
		run := func() { kept = foldInto(host, small, []relation.Attr{1}, relation.CountRing).Size() }
		run() // warm the index pool
		got := testing.AllocsPerRun(10, run)
		if kept == 0 || kept == rows {
			t.Fatalf("rows=%d: fold kept %d of %d rows — the test no longer exercises hits and misses", rows, kept, rows)
		}
		if got > ceiling {
			t.Fatalf("rows=%d: foldInto allocates %.0f per call, ceiling %d — per-row allocations are back", rows, got, ceiling)
		}
	}
}
