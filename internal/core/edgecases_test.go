package core

import (
	"math/rand"
	"testing"

	"repro/internal/hypergraph"
	"repro/internal/mpc"
	"repro/internal/relation"
)

// Edge-case and failure-injection suite: degenerate instances that real
// deployments hit constantly — empty relations, single tuples, all-equal
// keys, p = 1 clusters, dangling-only relations — run through every
// algorithm.

func emptyInstance(q *hypergraph.Hypergraph) *Instance {
	rels := make([]*relation.Relation, len(q.Edges))
	for i, e := range q.Edges {
		rels[i] = relation.New("R", e.Schema())
	}
	return NewInstance(q, rels...)
}

func singletonInstance(q *hypergraph.Hypergraph) *Instance {
	rels := make([]*relation.Relation, len(q.Edges))
	for i, e := range q.Edges {
		r := relation.New("R", e.Schema())
		t := make([]relation.Value, len(e))
		r.Add(t...) // all zeros: everything joins
		rels[i] = r
	}
	return NewInstance(q, rels...)
}

func TestAllAlgorithmsOnEmptyInput(t *testing.T) {
	for _, q := range []*hypergraph.Hypergraph{hypergraph.Line3(), hypergraph.RHierSimple()} {
		in := emptyInstance(q)
		c := mpc.NewCluster(4)
		if CountOutput(c, in, 1) != 0 {
			t.Error("CountOutput on empty input should be 0")
		}
		n := Yannakakis(mpc.NewCluster(4), in, nil, 1).Size() + AcyclicJoin(mpc.NewCluster(4), in, 1).Size()
		if q.IsRHierarchical() {
			n += RHier(mpc.NewCluster(4), in, 1).Size() + BinHC(mpc.NewCluster(4), in, 1, false).Size()
		} else {
			n += Line3WithTau(mpc.NewCluster(4), in, 0, 1).Size()
		}
		if n != 0 {
			t.Errorf("%v: emitted %d results from empty input", q, n)
		}
	}
}

func TestAllAlgorithmsOnSingletons(t *testing.T) {
	for _, q := range []*hypergraph.Hypergraph{
		hypergraph.Line3(), hypergraph.RHierSimple(), hypergraph.Q2Hierarchical(),
		hypergraph.Fig5Example(),
	} {
		in := singletonInstance(q)
		want := NaiveCount(in)
		if want != 1 {
			t.Fatalf("%v: singleton oracle = %d", q, want)
		}
		check := func(name string, f func(c *mpc.Cluster) *mpc.Dist) {
			if n := f(mpc.NewCluster(3)).Size(); n != 1 {
				t.Errorf("%v/%s: emitted %d, want 1", q, name, n)
			}
		}
		check("yannakakis", func(c *mpc.Cluster) *mpc.Dist { return Yannakakis(c, in, nil, 1) })
		check("acyclic", func(c *mpc.Cluster) *mpc.Dist { return AcyclicJoin(c, in, 1) })
		if q.IsRHierarchical() {
			check("rhier", func(c *mpc.Cluster) *mpc.Dist { return RHier(c, in, 1) })
			check("binhc", func(c *mpc.Cluster) *mpc.Dist { return BinHC(c, in, 1, false) })
		}
	}
}

func TestAlgorithmsOnSingleServer(t *testing.T) {
	// p = 1: everything degenerates to a local join; results must still be
	// exact and the load equals the input size plus bounded overhead.
	rng := rand.New(rand.NewSource(80))
	in := randInstance(rng, hypergraph.Line3(), 30, 5)
	want := NaiveCount(in)
	for _, f := range []func(c *mpc.Cluster) *mpc.Dist{
		func(c *mpc.Cluster) *mpc.Dist { return Yannakakis(c, in, nil, 1) },
		func(c *mpc.Cluster) *mpc.Dist { return Line3WithTau(c, in, 0, 1) },
		func(c *mpc.Cluster) *mpc.Dist { return AcyclicJoin(c, in, 1) },
		func(c *mpc.Cluster) *mpc.Dist { return Line3WorstCase(c, in, 1) },
	} {
		if n := int64(f(mpc.NewCluster(1)).Size()); n != want {
			t.Errorf("p=1 run emitted %d, want %d", n, want)
		}
	}
}

func TestDanglingOnlyRelation(t *testing.T) {
	// R2's tuples all dangle: every algorithm must report an empty join
	// without crashing.
	r1 := relation.New("R1", relation.NewSchema(1, 2))
	r2 := relation.New("R2", relation.NewSchema(2, 3))
	r3 := relation.New("R3", relation.NewSchema(3, 4))
	for i := 0; i < 20; i++ {
		r1.Add(relation.Value(i), relation.Value(i))
		r2.Add(relation.Value(100+i), relation.Value(200+i))
		r3.Add(relation.Value(i), relation.Value(i))
	}
	in := NewInstance(hypergraph.Line3(), r1, r2, r3)
	for _, f := range []func(c *mpc.Cluster) *mpc.Dist{
		func(c *mpc.Cluster) *mpc.Dist { return Yannakakis(c, in, nil, 1) },
		func(c *mpc.Cluster) *mpc.Dist { return Line3WithTau(c, in, 0, 1) },
		func(c *mpc.Cluster) *mpc.Dist { return AcyclicJoin(c, in, 1) },
	} {
		if n := f(mpc.NewCluster(4)).Size(); n != 0 {
			t.Errorf("dangling-only join emitted %d", n)
		}
	}
}

func TestAllTuplesOneKey(t *testing.T) {
	// Extreme skew: a single join value everywhere. OUT = n² on line-2.
	n := 50
	r1 := relation.New("R1", relation.NewSchema(1, 2))
	r2 := relation.New("R2", relation.NewSchema(2, 3))
	for i := 0; i < n; i++ {
		r1.Add(relation.Value(i), 7)
		r2.Add(7, relation.Value(i))
	}
	in := NewInstance(hypergraph.Line2(), r1, r2)
	c := mpc.NewCluster(9)
	em := counted(in, AcyclicJoin(c, in, 1))
	if em.N != int64(n*n) {
		t.Fatalf("one-key join = %d, want %d", em.N, n*n)
	}
	if c.MaxLoad() >= n {
		t.Errorf("one-key skew concentrated: load %d ≥ %d", c.MaxLoad(), n)
	}
}

func TestInstanceValidation(t *testing.T) {
	q := hypergraph.Line2()
	r1 := relation.New("R1", relation.NewSchema(1, 2))
	defer func() {
		if recover() == nil {
			t.Fatal("NewInstance with wrong relation count did not panic")
		}
	}()
	NewInstance(q, r1)
}

func TestInstanceSchemaMismatchPanics(t *testing.T) {
	q := hypergraph.Line2()
	r1 := relation.New("R1", relation.NewSchema(1, 2))
	r2 := relation.New("R2", relation.NewSchema(5, 6)) // wrong attrs
	defer func() {
		if recover() == nil {
			t.Fatal("NewInstance with schema mismatch did not panic")
		}
	}()
	NewInstance(q, r1, r2)
}

func TestInstanceClone(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	in := randInstance(rng, hypergraph.Line2(), 10, 3)
	cl := in.Clone()
	cl.Rels[0].Tuples[0][0] = 999
	if in.Rels[0].Tuples[0][0] == 999 {
		t.Error("Clone did not deep-copy tuples")
	}
}

func TestMixedArityQuery(t *testing.T) {
	// Relations of arity 1, 2 and 3 in one acyclic query.
	q := hypergraph.New(
		hypergraph.NewAttrSet(1),
		hypergraph.NewAttrSet(1, 2),
		hypergraph.NewAttrSet(1, 2, 3),
	)
	rng := rand.New(rand.NewSource(83))
	in := randInstance(rng, q, 15, 4)
	want := Naive(in)
	c := mpc.NewCluster(4)
	relEqual(t, collected(in, AcyclicJoin(c, in, 1)), want)
	c2 := mpc.NewCluster(4)
	relEqual(t, collected(in, RHier(c2, in, 1)), want)
}

func TestNegativeValues(t *testing.T) {
	// Negative domain values must survive key encoding end to end.
	r1 := relation.New("R1", relation.NewSchema(1, 2))
	r2 := relation.New("R2", relation.NewSchema(2, 3))
	r1.Add(-5, -10)
	r1.Add(3, -10)
	r2.Add(-10, -20)
	in := NewInstance(hypergraph.Line2(), r1, r2)
	c := mpc.NewCluster(3)
	em := collected(in, AcyclicJoin(c, in, 1))
	relEqual(t, em, Naive(in))
	if em.Size() != 2 {
		t.Errorf("negative-value join size = %d, want 2", em.Size())
	}
}

func TestAggregateSingleRelation(t *testing.T) {
	q := hypergraph.New(hypergraph.NewAttrSet(1, 2))
	r := relation.New("R", relation.NewSchema(1, 2))
	r.Add(1, 10)
	r.Add(1, 11)
	r.Add(2, 12)
	in := NewInstance(q, r)
	c := mpc.NewCluster(2)
	got := Aggregate(c, in, hypergraph.NewAttrSet(1), 1)
	m := map[relation.Value]int64{}
	for _, it := range got.All() {
		m[it.T[0]] = it.A
	}
	if m[1] != 2 || m[2] != 1 {
		t.Errorf("single-relation group-by = %v", m)
	}
}

func TestCountOutputCartesian(t *testing.T) {
	in := singletonInstance(hypergraph.CartesianK(4))
	c := mpc.NewCluster(4)
	if got := CountOutput(c, in, 1); got != 1 {
		t.Errorf("CountOutput = %d, want 1", got)
	}
}
