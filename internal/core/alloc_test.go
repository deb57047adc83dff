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
// head log, the table's row headers — and NEVER per row. The old path cost
// four allocations per result row (tuple, key strings, projected tuple,
// buffer doublings); here an 8× larger join must fit under the same fixed
// per-part budget. Two shapes: a one-stage keyed join, whose head log holds
// one entry per probe row, and Triangle's two stages, whose log outgrows
// the probe rows ⌈tau/s⌉ + 1-fold.
func TestLocalJoinEmitAllocCeiling(t *testing.T) {
	const p, perPart = 8, 30 // allocations allowed per part, whatever the row count
	prev := runtime.SetParallelism(1)
	defer runtime.SetParallelism(prev)

	chain := func(rng *mpc.Rng, rows int) []joinStage {
		return []joinStage{
			{part: fuzzPart(rng, rows, 2, rows/4, false), src: []int{0, 1}, dst: []int{0, 1}},
			{part: fuzzPart(rng, rows, 2, rows/4, true), keyPos: []int{0}, keyOut: []int{1}, src: []int{1}, dst: []int{2}},
		}
	}
	// tau = 6 A-values, side·6 ≈ rows R3 and R2 rows, ≈ rows R1 rows.
	triangle := func(rng *mpc.Rng, rows int) []joinStage {
		side := rows / 6
		return triangleShare(rng, 6, side, 1, float64(rows)/float64(side*side))
	}
	for _, shape := range []struct {
		name   string
		stages func(*mpc.Rng, int) []joinStage
	}{{"chain", chain}, {"triangle", triangle}} {
		for _, rows := range []int{500, 4000} {
			rng := mpc.NewRng(uint64(rows))
			parts := make([][]joinStage, p)
			for s := range parts {
				parts[s] = shape.stages(rng, rows)
			}
			if shape.name == "triangle" {
				// The head log holds one R3 lookup per R1 row and one R2
				// lookup per matching (R1, R3) pair.
				bc, ab := parts[0][0].part, parts[0][1].part
				deg := map[relation.Value]int{}
				for i := 0; i < ab.Len(); i++ {
					deg[ab.Tuple(i)[1]]++
				}
				pairs := 0
				for i := 0; i < bc.Len(); i++ {
					pairs += deg[bc.Tuple(i)[0]]
				}
				if pairs <= bc.Len() {
					t.Fatalf("rows=%d: %d (R1, R3) pairs for %d probe rows — the head log no longer outgrows the probe", rows, pairs, bc.Len())
				}
			}
			c := mpc.NewCluster(p)
			out := relation.NewSchema(1, 2, 3)
			results := 0
			run := func() {
				res := mpc.NewDist(c, out)
				for s := 0; s < p; s++ {
					indexJoin(&res.Parts[s], len(out), parts[s], nil, relation.CountRing)
				}
				results = res.Rel().Size()
			}
			run() // warm the index pool
			got := testing.AllocsPerRun(10, run)
			if results < 2*rows*p {
				t.Fatalf("%s rows=%d: join produced only %d results — the test no longer exercises the output path", shape.name, rows, results)
			}
			if got > perPart*p {
				t.Fatalf("%s rows=%d (%d results): local join + table allocates %.0f per run, ceiling %d — per-row allocations are back",
					shape.name, rows, results, got, perPart*p)
			}
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

// keyedProduct is R1(K,X) ⋈ R2(K,Y) with keys 0…keys−1, key k holding
// 1 + k%3 rows in R1 and 1 + k%2 in R2, plus a hub key −1 with hub rows in
// each: many small groups, and one big one when hub > 0.
func keyedProduct(keys, hub int) []*relation.Relation {
	r1 := relation.New("R1", relation.NewSchema(1, 2))
	r2 := relation.New("R2", relation.NewSchema(1, 3))
	for i := 0; i < hub; i++ {
		r1.Add(-1, relation.Value(i))
		r2.Add(-1, relation.Value(i))
	}
	for k := 0; k < keys; k++ {
		for i := 0; i <= k%3; i++ {
			r1.Add(relation.Value(k), relation.Value(i))
		}
		for i := 0; i <= k%2; i++ {
			r2.Add(relation.Value(k), relation.Value(i))
		}
	}
	return []*relation.Relation{r1, r2}
}

// TestBinHCSearchAllocCeiling: once the plan nodes a load probe visits
// exist, BinHC's search probe is arithmetic over cached group sizes and
// subset sizes — it allocates nothing, where the retained search regrouped
// the whole instance at every probe.
func TestBinHCSearchAllocCeiling(t *testing.T) {
	rels := keyedProduct(200, 60)
	plan := newHierNode(rels, nil, relation.CountRing, degreeSizer)
	in := int64(totalSize(rels))
	probes := []int64{in/16 + 1, in / 8, in / 4, in + 1}
	for _, l := range probes {
		plan.servers(l) // build the nodes this probe visits
	}
	if hub := plan.groups[0]; hub.child == nil || hub.child.groups == nil {
		t.Fatal("the hub group built no child node — the test no longer reaches a sub-plan")
	}
	for _, l := range probes {
		if got := testing.AllocsPerRun(10, func() { plan.servers(l) }); got != 0 {
			t.Fatalf("l=%d: a probe over built nodes allocates %.0f, want 0", l, got)
		}
	}
}

// TestHierCase1AllocCeiling: a Case-1 node solves each server's light
// groups with one local join, so it allocates per server — the output
// parts, the batch, each join's stages and index — and never per light
// group. The retained body grouped into one relation per value and ran one
// join per group; here 8× more light groups must fit the same budget.
func TestHierCase1AllocCeiling(t *testing.T) {
	const p, perServer = 8, 32 // allocations allowed per server, whatever the group count
	prev := runtime.SetParallelism(1)
	defer runtime.SetParallelism(prev)
	for _, keys := range []int{128, 1024} {
		rels := keyedProduct(keys, 0)
		n := newHierNode(rels, nil, relation.CountRing, exactSizer)
		n.fold()
		n.group()
		if n.comps || len(n.groups) != keys {
			t.Fatalf("keys=%d: the node has %d groups (Case 2: %v), want one Case-1 group per key", keys, len(n.groups), n.comps)
		}
		l := int64(totalSize(rels)) / (4 * p) // ≈ 4 packs per server
		results := 0
		run := func() { results = n.case1(mpc.NewCluster(p), l).Rel().Size() }
		run() // warm the index pool
		if want := int(InMemoryJoinCount(rels)); results != want {
			t.Fatalf("keys=%d: %d results, want %d", keys, results, want)
		}
		got := testing.AllocsPerRun(10, func() { n.case1(mpc.NewCluster(p), l) })
		if got > perServer*p {
			t.Fatalf("keys=%d: a Case-1 node allocates %.0f per run, ceiling %d — per-group allocations are back", keys, got, perServer*p)
		}
	}
}
