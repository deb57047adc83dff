package core

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/hypergraph"
	"repro/internal/mpc"
	"repro/internal/relation"
	"repro/internal/runtime"
)

var rhierQueries = []*hypergraph.Hypergraph{
	hypergraph.Line2(),
	hypergraph.Q1TallFlat(),
	hypergraph.Q2Hierarchical(),
	hypergraph.Q2RHier(),
	hypergraph.RHierSimple(),
	hypergraph.StarK(3),
	hypergraph.CartesianK(3),
}

func TestInMemoryJoinCount(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	for _, q := range append(rhierQueries, hypergraph.Line3(), hypergraph.Fig5Example()) {
		for trial := 0; trial < 5; trial++ {
			in := randInstance(rng, q, 15, 4)
			got := InMemoryJoinCount(in.Rels)
			want := NaiveCount(in)
			if got != want {
				t.Errorf("%v: InMemoryJoinCount = %d, want %d", q, got, want)
			}
		}
	}
}

func TestLInstanceBinaryJoin(t *testing.T) {
	// For a binary join, L_instance = max(|R1|/p, |R2|/p, sqrt(OUT/p))-ish.
	r1 := relation.New("R1", relation.NewSchema(1, 2))
	r2 := relation.New("R2", relation.NewSchema(2, 3))
	for i := 0; i < 100; i++ {
		r1.Add(relation.Value(i), 0)
		r2.Add(0, relation.Value(i))
	}
	in := NewInstance(hypergraph.Line2(), r1, r2)
	got := LInstance(in, 4)
	// OUT = 10000, so sqrt(10000/4) = 50 dominates 100/4 = 25.
	if got != 50 {
		t.Errorf("LInstance = %d, want 50", got)
	}
}

func TestRHierMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for _, q := range rhierQueries {
		for trial := 0; trial < 5; trial++ {
			in := randInstance(rng, q, 12+rng.Intn(12), 4)
			c := mpc.NewCluster(1 + rng.Intn(8))
			relEqual(t, collected(in, RHier(c, in, uint64(trial))), Naive(in))
		}
	}
}

func TestRHierRejectsLine3(t *testing.T) {
	in := randInstance(rand.New(rand.NewSource(1)), hypergraph.Line3(), 5, 3)
	c := mpc.NewCluster(2)
	defer func() {
		if recover() == nil {
			t.Fatal("RHier on line-3 did not panic")
		}
	}()
	RHier(c, in, 1)
}

func TestRHierAnnotated(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	in := randInstance(rng, hypergraph.Q2RHier(), 12, 3)
	for i, r := range in.Rels {
		r.Annots = make([]int64, r.Size())
		for j := range r.Annots {
			r.Annots[j] = int64(1 + (i*j)%4)
		}
	}
	c := mpc.NewCluster(4)
	relEqual(t, collected(in, RHier(c, in, 1)), Naive(in))
}

func TestRHierInstanceOptimalLoad(t *testing.T) {
	// A skewed r-hierarchical instance: load must stay within a constant
	// factor of IN/p + L_instance(p, R).
	p := 16
	r1 := relation.New("R1", relation.NewSchema(1))
	r2 := relation.New("R2", relation.NewSchema(1, 2))
	r3 := relation.New("R3", relation.NewSchema(2))
	// One hub value with many partners, plus a diffuse tail.
	for i := 0; i < 200; i++ {
		r2.Add(0, relation.Value(i))
		r3.Add(relation.Value(i))
	}
	for i := 1; i <= 100; i++ {
		r2.Add(relation.Value(i), relation.Value(200+i))
		r3.Add(relation.Value(200 + i))
	}
	r1.Add(0)
	for i := 1; i <= 100; i++ {
		r1.Add(relation.Value(i))
	}
	in := NewInstance(hypergraph.RHierSimple(), r1, r2, r3.Dedup())
	c := mpc.NewCluster(p)
	em := counted(in, RHier(c, in, 1))
	if em.N != NaiveCount(in) {
		t.Fatalf("RHier count = %d, want %d", em.N, NaiveCount(in))
	}
	red := NaiveSemiJoinReduce(in)
	bound := int64(in.IN()/p) + LInstance(red, p)
	if int64(c.MaxLoad()) > 8*bound {
		t.Errorf("RHier load %d exceeds 8×(IN/p + L_instance) = %d", c.MaxLoad(), 8*bound)
	}
}

func TestRHierCartesianInterleaving(t *testing.T) {
	// The paper's Case-2 example: |Q1| = 1, Q2 = R1(A,B) ⋈ R2(B,C) with
	// |dom(B)| = 1 producing p·IN results. A two-step approach would incur
	// Ω(IN) load to materialize Q2; the grid must stay near L_instance.
	p := 8
	nIN := 128
	q := hypergraph.New(
		hypergraph.NewAttrSet(1),    // R0(x1): single tuple
		hypergraph.NewAttrSet(2, 3), // R1(A,B)
		hypergraph.NewAttrSet(3, 4), // R2(B,C)
	)
	r0 := relation.New("R0", relation.NewSchema(1))
	r0.Add(42)
	r1 := relation.New("R1", relation.NewSchema(2, 3))
	for i := 0; i < nIN; i++ {
		r1.Add(relation.Value(i), 0)
	}
	r2 := relation.New("R2", relation.NewSchema(3, 4))
	for i := 0; i < p; i++ {
		r2.Add(0, relation.Value(i))
	}
	in := NewInstance(q, r0, r1, r2)
	c := mpc.NewCluster(p)
	em := counted(in, RHier(c, in, 1))
	want := int64(nIN * p)
	if em.N != want {
		t.Fatalf("count = %d, want %d", em.N, want)
	}
	red := NaiveSemiJoinReduce(in)
	bound := int64(in.IN()/p) + LInstance(red, p)
	if int64(c.MaxLoad()) > 8*bound {
		t.Errorf("grid load %d exceeds 8×bound %d (two-step would pay ~%d)",
			c.MaxLoad(), 8*bound, nIN)
	}
}

// TestRHierGridDeterministicAcrossWidths pins the residue-class grid
// emission: hierCase2 forks one task per cell residue class, and the
// emitted parts, the collected relation, and the cluster charges must be
// byte-identical to the serial walk at every data-plane width.
func TestRHierGridDeterministicAcrossWidths(t *testing.T) {
	const p, nIN = 8, 96
	q := hypergraph.New(
		hypergraph.NewAttrSet(1),    // R0(x1): single tuple
		hypergraph.NewAttrSet(2, 3), // R1(A,B)
		hypergraph.NewAttrSet(3, 4), // R2(B,C)
	)
	build := func() *Instance {
		r0 := relation.New("R0", relation.NewSchema(1))
		r0.Add(42)
		r1 := relation.New("R1", relation.NewSchema(2, 3))
		for i := 0; i < nIN; i++ {
			r1.Add(relation.Value(i), 0)
		}
		r2 := relation.New("R2", relation.NewSchema(3, 4))
		for i := 0; i < 3*p; i++ {
			r2.Add(0, relation.Value(i))
		}
		return NewInstance(q, r0, r1, r2)
	}

	type run struct {
		parts []mpc.Item
		rel   *relation.Relation
		stats mpc.Stats
	}
	runAt := func(width int) run {
		prev := runtime.SetParallelism(width)
		defer runtime.SetParallelism(prev)
		in := build()
		c := mpc.NewCluster(p)
		res := RHier(c, in, 1)
		return run{parts: res.All(), rel: collected(in, res), stats: c.Snapshot()}
	}

	ref := runAt(1)
	if ref.rel.Size() == 0 {
		t.Fatal("grid instance produced no output")
	}
	for _, width := range []int{2, 8} {
		got := runAt(width)
		if !reflect.DeepEqual(ref.parts, got.parts) {
			t.Fatalf("width %d: result parts differ from serial", width)
		}
		if !reflect.DeepEqual(ref.rel.Tuples, got.rel.Tuples) || !reflect.DeepEqual(ref.rel.Annots, got.rel.Annots) {
			t.Fatalf("width %d: emitted relation differs from serial", width)
		}
		if !reflect.DeepEqual(ref.stats, got.stats) {
			t.Fatalf("width %d: charges differ:\nref %+v\ngot %+v", width, ref.stats, got.stats)
		}
	}
}

func TestBinHCMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for _, q := range rhierQueries {
		for trial := 0; trial < 4; trial++ {
			in := randInstance(rng, q, 12, 4)
			for _, dangling := range []bool{false, true} {
				c := mpc.NewCluster(1 + rng.Intn(8))
				relEqual(t, collected(in, BinHC(c, in, uint64(trial), dangling)), Naive(in))
			}
		}
	}
}

func TestBinHCDanglingBarrier(t *testing.T) {
	// Table 1, one-round column: with dangling tuples, the degree-based
	// one-round allocation pays more than the instance-optimal bound; the
	// semi-join preprocessing restores it.
	p := 8
	r1 := relation.New("R1", relation.NewSchema(1))
	r2 := relation.New("R2", relation.NewSchema(1, 2))
	r3 := relation.New("R3", relation.NewSchema(2))
	// R2 has a huge dangling block: B-values missing from R3.
	for i := 0; i < 400; i++ {
		r2.Add(0, relation.Value(1000+i)) // dangling partners
	}
	r2.Add(0, 1)
	r1.Add(0)
	r3.Add(1)
	in := NewInstance(hypergraph.RHierSimple(), r1, r2, r3)

	cNo := mpc.NewCluster(p)
	emNo := counted(in, BinHC(cNo, in, 1, false))

	cYes := mpc.NewCluster(p)
	emYes := counted(in, BinHC(cYes, in, 1, true))

	if emNo.N != 1 || emYes.N != 1 {
		t.Fatalf("counts = %d,%d want 1,1", emNo.N, emYes.N)
	}
	if cYes.MaxLoad() > cNo.MaxLoad() {
		t.Errorf("reduction should not hurt: with=%d without=%d", cYes.MaxLoad(), cNo.MaxLoad())
	}
}

func TestReduceFoldSemantics(t *testing.T) {
	r1 := relation.New("R1", relation.NewSchema(1, 2))
	r2 := relation.New("R2", relation.NewSchema(2))
	r1.AddAnnotated(2, 1, 10)
	r1.AddAnnotated(3, 2, 11)
	r2.AddAnnotated(5, 10)
	out := reduceFold([]*relation.Relation{r1, r2}, nil, relation.CountRing)
	if len(out) != 1 {
		t.Fatalf("reduceFold kept %d relations, want 1", len(out))
	}
	if out[0].Size() != 1 || out[0].Annot(0) != 10 {
		t.Errorf("folded relation = %v annots %v", out[0].Tuples, out[0].Annots)
	}
}

func TestGroupByValue(t *testing.T) {
	r1 := relation.New("R1", relation.NewSchema(1, 2))
	r1.Add(1, 10)
	r1.Add(1, 11)
	r1.Add(2, 12)
	r2 := relation.New("R2", relation.NewSchema(1))
	r2.Add(1)
	groups := groupByValue([]*relation.Relation{r1, r2}, 1)
	if len(groups) != 2 {
		t.Fatalf("groups = %d, want 2", len(groups))
	}
	if groups[1][0].Size() != 2 || groups[1][1].Size() != 1 {
		t.Errorf("group 1 sizes wrong")
	}
	if groups[2][0].Size() != 1 || groups[2][1].Size() != 0 {
		t.Errorf("group 2 sizes wrong")
	}
}
