package core

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/hypergraph"
	"repro/internal/mpc"
	"repro/internal/relation"
)

// naiveAggregate computes ⊕_ȳ Q(R) by materializing Q(R) and grouping.
func naiveAggregate(in *Instance, y hypergraph.AttrSet) map[string]int64 {
	full := Naive(in)
	var pos []int
	if len(y) > 0 {
		pos = full.Schema.Positions([]relation.Attr(y.Schema()))
	}
	out := map[string]int64{}
	for i, t := range full.Tuples {
		k := relation.KeyAt(t, pos)
		if _, ok := out[k]; !ok {
			out[k] = in.Ring.Zero
		}
		out[k] = in.Ring.Add(out[k], full.Annot(i))
	}
	return out
}

func TestCountOutputMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	queries := []*hypergraph.Hypergraph{
		hypergraph.Line2(), hypergraph.Line3(), hypergraph.LineK(4),
		hypergraph.StarK(3), hypergraph.Q2Hierarchical(), hypergraph.Q2RHier(),
		hypergraph.RHierSimple(), hypergraph.CartesianK(3), hypergraph.Fig5Example(),
	}
	for _, q := range queries {
		for trial := 0; trial < 4; trial++ {
			in := randInstance(rng, q, 15, 4)
			c := mpc.NewCluster(1 + rng.Intn(8))
			got := CountOutput(c, in, uint64(trial))
			want := NaiveCount(in)
			if got != want {
				t.Errorf("%v: CountOutput = %d, want %d", q, got, want)
			}
		}
	}
}

func TestCountOutputLinearLoad(t *testing.T) {
	// CountOutput must run at linear load even when OUT is enormous:
	// line-3 with a full bipartite middle has OUT = n²·n... large, but
	// counting is O(IN/p).
	n, p := 400, 8
	r1 := relation.New("R1", relation.NewSchema(1, 2))
	r2 := relation.New("R2", relation.NewSchema(2, 3))
	r3 := relation.New("R3", relation.NewSchema(3, 4))
	for i := 0; i < n; i++ {
		r1.Add(relation.Value(i), relation.Value(i%2))
		r2.Add(relation.Value(i%2), relation.Value(i%2))
		r3.Add(relation.Value(i%2), relation.Value(i))
	}
	in := NewInstance(hypergraph.Line3(), r1.Dedup(), r2.Dedup(), r3.Dedup())
	c := mpc.NewCluster(p)
	got := CountOutput(c, in, 1)
	if want := NaiveCount(in); got != want {
		t.Fatalf("CountOutput = %d, want %d", got, want)
	}
	inSize := in.IN()
	if c.MaxLoad() > 4*(inSize/p)+4*p {
		t.Errorf("CountOutput load %d not linear (IN/p = %d)", c.MaxLoad(), inSize/p)
	}
}

func TestCountOutputIgnoresAnnotations(t *testing.T) {
	r1 := relation.New("R1", relation.NewSchema(1, 2))
	r1.AddAnnotated(50, 1, 2)
	r2 := relation.New("R2", relation.NewSchema(2, 3))
	r2.AddAnnotated(70, 2, 3)
	in := NewInstance(hypergraph.Line2(), r1, r2)
	c := mpc.NewCluster(2)
	if got := CountOutput(c, in, 1); got != 1 {
		t.Errorf("CountOutput = %d, want 1 (annotations must be ignored)", got)
	}
}

func TestLinearAggroFrontierInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	in := randInstance(rng, hypergraph.Line3(), 25, 4)
	y := hypergraph.NewAttrSet(2, 3)
	c := mpc.NewCluster(4)
	res := LinearAggro(c, in, y, 1)
	var union hypergraph.AttrSet
	for _, f := range res.Frontiers {
		fs := hypergraph.NewAttrSet([]relation.Attr(f.Schema)...)
		if !fs.SubsetOf(y) {
			t.Errorf("frontier schema %v not ⊆ y", f.Schema)
		}
		union = union.Union(fs)
	}
	if !union.Equal(y) {
		t.Errorf("frontier union %v != y %v", union, y)
	}
}

func TestAggregateMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	cases := []struct {
		q *hypergraph.Hypergraph
		y hypergraph.AttrSet
	}{
		{hypergraph.Line3(), hypergraph.NewAttrSet(2, 3)},
		{hypergraph.Line3(), hypergraph.NewAttrSet(1, 2)},
		{hypergraph.Line3(), hypergraph.NewAttrSet(1, 2, 3, 4)},
		{hypergraph.Line2(), hypergraph.NewAttrSet(2)},
		{hypergraph.LineK(4), hypergraph.NewAttrSet(1, 2)},
		{hypergraph.StarK(3), hypergraph.NewAttrSet(0)},
		{hypergraph.Q2Hierarchical(), hypergraph.NewAttrSet(1, 3)},
		{hypergraph.Fig5Example(), hypergraph.NewAttrSet(1, 2, 4)},
	}
	for _, cse := range cases {
		for trial := 0; trial < 3; trial++ {
			in := randInstance(rng, cse.q, 20, 4)
			c := mpc.NewCluster(1 + rng.Intn(8))
			got := Aggregate(c, in, cse.y, uint64(trial))
			want := naiveAggregate(in, cse.y)
			// Drop zero groups from want (they are not output).
			for k, v := range want {
				if v == in.Ring.Zero {
					delete(want, k)
				}
			}
			gotM := map[string]int64{}
			for _, it := range got.All() {
				gotM[relation.EncodeTuple(it.T)] = it.A
			}
			if len(gotM) != len(want) {
				t.Fatalf("%v y=%v: %d groups, want %d", cse.q, cse.y, len(gotM), len(want))
			}
			for k, v := range want {
				if gotM[k] != v {
					t.Errorf("%v y=%v: group mismatch: got %d want %d", cse.q, cse.y, gotM[k], v)
				}
			}
		}
	}
}

func TestAggregateWithMaxPlusRing(t *testing.T) {
	// MAX aggregation: the answer per group is the max over join results of
	// the sum of tuple scores.
	r1 := relation.New("R1", relation.NewSchema(1, 2))
	r2 := relation.New("R2", relation.NewSchema(2, 3))
	r1.AddAnnotated(5, 1, 10)
	r1.AddAnnotated(3, 2, 10)
	r2.AddAnnotated(7, 10, 1)
	r2.AddAnnotated(9, 10, 2)
	in := NewInstance(hypergraph.Line2(), r1, r2)
	in.Ring = relation.MaxPlusRing
	c := mpc.NewCluster(2)
	got := Aggregate(c, in, hypergraph.NewAttrSet(2), 1)
	items := got.All()
	if len(items) != 1 {
		t.Fatalf("groups = %d, want 1", len(items))
	}
	if items[0].A != 14 { // max(5,3) + max(7,9)
		t.Errorf("max-plus aggregate = %d, want 14", items[0].A)
	}
}

func TestAggregateNonFreeConnexPanics(t *testing.T) {
	in := randInstance(rand.New(rand.NewSource(1)), hypergraph.Line3(), 5, 3)
	c := mpc.NewCluster(2)
	defer func() {
		if recover() == nil {
			t.Fatal("non-free-connex aggregate did not panic")
		}
	}()
	Aggregate(c, in, hypergraph.NewAttrSet(1, 4), 1)
}

func TestAggregateEmptyResult(t *testing.T) {
	r1 := relation.New("R1", relation.NewSchema(1, 2))
	r2 := relation.New("R2", relation.NewSchema(2, 3))
	r1.Add(1, 5)
	r2.Add(6, 2)
	in := NewInstance(hypergraph.Line2(), r1, r2)
	c := mpc.NewCluster(2)
	got := Aggregate(c, in, hypergraph.NewAttrSet(2), 1)
	if got.Size() != 0 {
		t.Errorf("empty join aggregated to %d groups", got.Size())
	}
	if n := CountOutput(mpc.NewCluster(2), in, 1); n != 0 {
		t.Errorf("CountOutput = %d, want 0", n)
	}
}

func TestAggregateReducedQueryWithContainedEdge(t *testing.T) {
	// R2(B) ⊆ R1(A,B): the reduce step must fold R2's annotations into R1.
	q := hypergraph.New(hypergraph.NewAttrSet(1, 2), hypergraph.NewAttrSet(2))
	r1 := relation.New("R1", relation.NewSchema(1, 2))
	r2 := relation.New("R2", relation.NewSchema(2))
	r1.AddAnnotated(2, 1, 10)
	r1.AddAnnotated(3, 2, 11)
	r2.AddAnnotated(5, 10)
	r2.AddAnnotated(7, 11)
	in := NewInstance(q, r1, r2)
	c := mpc.NewCluster(2)
	got := Aggregate(c, in, hypergraph.NewAttrSet(1), 1)
	want := naiveAggregate(in, hypergraph.NewAttrSet(1))
	gotM := map[string]int64{}
	for _, it := range got.All() {
		gotM[relation.EncodeTuple(it.T)] = it.A
	}
	if len(gotM) != len(want) {
		t.Fatalf("groups = %d, want %d", len(gotM), len(want))
	}
	for k, v := range want {
		if gotM[k] != v {
			t.Errorf("group value %d, want %d", gotM[k], v)
		}
	}
}

// TestAbsorbKeepsTheHostsOwnRelation: R1(A) ⊆ R2(A,B) ⊇ R3(B) lists an
// absorbed edge before its host's own relation. The host starts from R2 and
// absorbs R1 and R3; R2 is never its own directory, which would square its
// annotations and abort on a duplicate row.
func TestAbsorbKeepsTheHostsOwnRelation(t *testing.T) {
	r1, r2, r3 := relation.New("R1", relation.NewSchema(1)), relation.New("R2", relation.NewSchema(1, 2)), relation.New("R3", relation.NewSchema(2))
	r1.AddAnnotated(2, 5)
	r2.AddAnnotated(3, 5, 6)
	r2.AddAnnotated(3, 5, 6) // a bag on the host
	r2.AddAnnotated(4, 7, 6)
	r3.AddAnnotated(5, 6)
	in := NewInstance(hypergraph.RHierSimple(), r1, r2, r3)
	for _, y := range []hypergraph.AttrSet{nil, hypergraph.NewAttrSet(1)} {
		want := naiveAggregate(in, y)
		got := map[string]int64{}
		for _, it := range Aggregate(mpc.NewCluster(2), in, y, 1).All() {
			got[relation.EncodeTuple(it.T)] = it.A
		}
		if len(got) != len(want) {
			t.Fatalf("y=%v: %d groups, want %d", y, len(got), len(want))
		}
		for k, v := range want {
			if got[k] != v {
				t.Errorf("y=%v: group value %d, want %d", y, got[k], v)
			}
		}
	}
	if n := CountOutput(mpc.NewCluster(2), in, 1); n != 2 {
		t.Errorf("CountOutput = %d, want 2", n)
	}
}

// TestMaxPlusReadsUnannotatedAsOne: under max-plus, whose One is 0, an
// unannotated relation contributes One per tuple, not the value 1. Naive
// and Aggregate answer the same on line-3 with R1 and R2 unannotated as
// with R1 and R2 annotated with One explicitly, and Aggregate agrees with
// the oracle on both.
func TestMaxPlusReadsUnannotatedAsOne(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	bare := randInstance(rng, hypergraph.Line3(), 40, 6)
	bare.Ring = relation.MaxPlusRing
	r3 := bare.Rels[2]
	r3.Annots = make([]int64, r3.Size())
	for i := range r3.Annots {
		r3.Annots[i] = int64(i % 7)
	}
	explicit := bare.Clone()
	for _, r := range explicit.Rels[:2] {
		r.Annots = make([]int64, r.Size())
		for i := range r.Annots {
			r.Annots[i] = relation.MaxPlusRing.One
		}
	}
	nb, ne := Naive(bare), Naive(explicit)
	if nb.Size() == 0 || !reflect.DeepEqual(nb.Tuples, ne.Tuples) || !reflect.DeepEqual(nb.Annots, ne.Annots) {
		t.Fatalf("Naive differs between unannotated and One-annotated input (%d rows)", nb.Size())
	}
	y := hypergraph.NewAttrSet(2, 3)
	want := naiveAggregate(explicit, y)
	for name, in := range map[string]*Instance{"unannotated": bare, "explicit": explicit} {
		got := Aggregate(mpc.NewCluster(4), in, y, 1)
		if got.Size() != len(want) {
			t.Fatalf("%s: %d groups, want %d", name, got.Size(), len(want))
		}
		for _, it := range got.All() {
			if k := relation.KeyAt(it.T, []int{0, 1}); it.A != want[k] {
				t.Errorf("%s: group %v = %d, want %d", name, it.T, it.A, want[k])
			}
		}
	}
}
