package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/hypergraph"
	"repro/internal/mpc"
	"repro/internal/relation"
)

func TestMultiwayKeyedJoinMatchesNaive(t *testing.T) {
	// Star-by-key: R1(K,A), R2(K,B), R3(K,C) keyed on K.
	rng := rand.New(rand.NewSource(40))
	q := hypergraph.New(
		hypergraph.NewAttrSet(1, 2),
		hypergraph.NewAttrSet(1, 3),
		hypergraph.NewAttrSet(1, 4),
	)
	for trial := 0; trial < 10; trial++ {
		in := randInstance(rng, q, 25, 5)
		c := mpc.NewCluster(1 + rng.Intn(8))
		dists := LoadInstance(c, in)
		res := MultiwayKeyedJoin(relation.NewSchema(1), dists, in.Ring, uint64(trial))
		relEqual(t, res.ToRelation("got"), Naive(in))
	}
}

func TestMultiwayKeyedJoinCartesian(t *testing.T) {
	// Empty key: plain HyperCube Cartesian product of three sets.
	q := hypergraph.CartesianK(3)
	sizes := []int{20, 12, 8}
	rels := make([]*relation.Relation, 3)
	for i, n := range sizes {
		r := relation.New("R", relation.NewSchema(relation.Attr(i+1)))
		for j := 0; j < n; j++ {
			r.Add(relation.Value(j))
		}
		rels[i] = r
	}
	in := NewInstance(q, rels...)
	p := 8
	c := mpc.NewCluster(p)
	dists := LoadInstance(c, in)
	res := MultiwayKeyedJoin(relation.Schema{}, dists, in.Ring, 3)
	want := sizes[0] * sizes[1] * sizes[2]
	if res.Size() != want {
		t.Fatalf("product size = %d, want %d", res.Size(), want)
	}
	// Load should be near the Cartesian lower bound (1):
	// max over subsets S of (Π_{i∈S} N_i / p)^{1/|S|}.
	lb := 0.0
	ns := []float64{20, 12, 8}
	for mask := 1; mask < 8; mask++ {
		prod, cnt := 1.0, 0
		for i := 0; i < 3; i++ {
			if mask&(1<<i) != 0 {
				prod *= ns[i]
				cnt++
			}
		}
		if v := math.Pow(prod/float64(p), 1/float64(cnt)); v > lb {
			lb = v
		}
	}
	if float64(c.MaxLoad()) > 8*(lb+float64(in.IN())/float64(p)) {
		t.Errorf("HyperCube load %d far above L_cartesian = %.1f", c.MaxLoad(), lb)
	}
}

func TestMultiwayKeyedJoinSkewedKey(t *testing.T) {
	// One key with large degree in every relation: must be gridded.
	n, p := 40, 27
	mk := func(a relation.Attr) *relation.Relation {
		r := relation.New("R", relation.NewSchema(1, a))
		for i := 0; i < n; i++ {
			r.Add(7, relation.Value(i))
		}
		return r
	}
	q := hypergraph.New(
		hypergraph.NewAttrSet(1, 2),
		hypergraph.NewAttrSet(1, 3),
		hypergraph.NewAttrSet(1, 4),
	)
	in := NewInstance(q, mk(2), mk(3), mk(4))
	c := mpc.NewCluster(p)
	dists := LoadInstance(c, in)
	res := MultiwayKeyedJoin(relation.NewSchema(1), dists, in.Ring, 1)
	if res.Size() != n*n*n {
		t.Fatalf("size = %d, want %d", res.Size(), n*n*n)
	}
	// Lower bound per instance: (OUT/p)^{1/3} = (64000/27)^{1/3} ≈ 13.3.
	if c.MaxLoad() >= n {
		t.Errorf("heavy key not spread: load %d ≥ degree %d", c.MaxLoad(), n)
	}
}

func TestMultiwayKeyedJoinAnnotations(t *testing.T) {
	q := hypergraph.New(hypergraph.NewAttrSet(1, 2), hypergraph.NewAttrSet(1, 3))
	r1 := relation.New("R1", relation.NewSchema(1, 2))
	r2 := relation.New("R2", relation.NewSchema(1, 3))
	r1.AddAnnotated(3, 1, 10)
	r2.AddAnnotated(5, 1, 20)
	in := NewInstance(q, r1, r2)
	c := mpc.NewCluster(2)
	dists := LoadInstance(c, in)
	res := MultiwayKeyedJoin(relation.NewSchema(1), dists, in.Ring, 1)
	if len(res.All()) != 1 || res.All()[0].A != 15 {
		t.Errorf("annotated multiway = %v", res.All())
	}
}

func TestAcyclicJoinMatchesNaiveAcrossQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	queries := []*hypergraph.Hypergraph{
		hypergraph.Line2(), hypergraph.Line3(), hypergraph.LineK(4), hypergraph.LineK(5),
		hypergraph.StarK(3), hypergraph.StarK(4),
		hypergraph.Q1TallFlat(), hypergraph.Q2Hierarchical(), hypergraph.Q2RHier(),
		hypergraph.RHierSimple(), hypergraph.Fig5Example(),
	}
	for _, q := range queries {
		for trial := 0; trial < 4; trial++ {
			in := randInstance(rng, q, 12+rng.Intn(15), 4)
			c := mpc.NewCluster(1 + rng.Intn(8))
			relEqual(t, collected(in, AcyclicJoin(c, in, uint64(trial))), Naive(in))
		}
	}
}

func TestAcyclicJoinCartesianComponents(t *testing.T) {
	// Disconnected query: product of two chains — exercises the dummy
	// attribute fix.
	q := hypergraph.New(
		hypergraph.NewAttrSet(1, 2), hypergraph.NewAttrSet(2, 3),
		hypergraph.NewAttrSet(10, 11),
	)
	rng := rand.New(rand.NewSource(42))
	in := randInstance(rng, q, 10, 3)
	c := mpc.NewCluster(4)
	relEqual(t, collected(in, AcyclicJoin(c, in, 1)), Naive(in))
}

func TestAcyclicJoinSkewedLine4(t *testing.T) {
	// Mixed skew along a longer chain, forcing multiple recursion levels.
	r1 := relation.New("R1", relation.NewSchema(1, 2))
	r2 := relation.New("R2", relation.NewSchema(2, 3))
	r3 := relation.New("R3", relation.NewSchema(3, 4))
	r4 := relation.New("R4", relation.NewSchema(4, 5))
	for i := 0; i < 40; i++ {
		r1.Add(relation.Value(i), 0)
		r1.Add(relation.Value(i), relation.Value(1+i%3))
		r2.Add(0, relation.Value(i%6))
		r2.Add(relation.Value(1+i%3), relation.Value(i%6))
		r3.Add(relation.Value(i%6), relation.Value(i%4))
		r4.Add(relation.Value(i%4), relation.Value(i))
	}
	in := NewInstance(hypergraph.LineK(4),
		r1.Dedup(), r2.Dedup(), r3.Dedup(), r4.Dedup())
	c := mpc.NewCluster(6)
	relEqual(t, collected(in, AcyclicJoin(c, in, 9)), Naive(in))
}

func TestAcyclicJoinEmptyOutput(t *testing.T) {
	r1 := relation.New("R1", relation.NewSchema(1, 2))
	r2 := relation.New("R2", relation.NewSchema(2, 3))
	r3 := relation.New("R3", relation.NewSchema(3, 4))
	r1.Add(1, 1)
	r2.Add(2, 2)
	r3.Add(2, 3)
	in := NewInstance(hypergraph.Line3(), r1, r2, r3)
	c := mpc.NewCluster(4)
	if res := AcyclicJoin(c, in, 1); res.Size() != 0 {
		t.Errorf("empty join produced %d", res.Size())
	}
}

func TestAcyclicJoinRejectsCyclic(t *testing.T) {
	in := randInstance(rand.New(rand.NewSource(1)), hypergraph.Triangle(), 5, 3)
	c := mpc.NewCluster(2)
	defer func() {
		if recover() == nil {
			t.Fatal("AcyclicJoin on triangle did not panic")
		}
	}()
	AcyclicJoin(c, in, 1)
}

func TestAcyclicJoinAnnotated(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	q := hypergraph.LineK(4)
	in := randInstance(rng, q, 15, 3)
	for i, r := range in.Rels {
		r.Annots = make([]int64, r.Size())
		for j := range r.Annots {
			r.Annots[j] = int64(1 + (i+j)%5)
		}
	}
	c := mpc.NewCluster(4)
	relEqual(t, collected(in, AcyclicJoin(c, in, 2)), Naive(in))
}

func TestAcyclicJoinLoadBeatsYannakakisOnHardInstance(t *testing.T) {
	// The general algorithm must reproduce the line-3 result of Section 4
	// via the Section 5 machinery.
	n, p := 512, 16
	out := n * 8
	in := yannakakisHard(n, out)
	want := NaiveCount(in)

	cA := mpc.NewCluster(p)
	emA := counted(in, AcyclicJoin(cA, in, 1))
	if emA.N != want {
		t.Fatalf("AcyclicJoin count = %d, want %d", emA.N, want)
	}

	cY := mpc.NewCluster(p)
	Yannakakis(cY, in, []int{0, 1, 2}, 1)

	inSize := float64(in.IN())
	bound := inSize/float64(p) + math.Sqrt(inSize*float64(want)/float64(p))
	if float64(cA.MaxLoad()) > 8*bound {
		t.Errorf("AcyclicJoin load %d exceeds 8×(IN/p+√(IN·OUT/p)) = %.0f", cA.MaxLoad(), 8*bound)
	}
	if cY.MaxLoad() <= cA.MaxLoad() {
		t.Errorf("Yannakakis (%d) should exceed AcyclicJoin (%d) here", cY.MaxLoad(), cA.MaxLoad())
	}
}
