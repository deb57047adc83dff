package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/hypergraph"
	"repro/internal/mpc"
	"repro/internal/relation"
)

func TestLine3MatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	for trial := 0; trial < 15; trial++ {
		in := randInstance(rng, hypergraph.Line3(), 25+rng.Intn(30), 5)
		c := mpc.NewCluster(1 + rng.Intn(8))
		relEqual(t, collected(in, Line3WithTau(c, in, 0, uint64(trial))), Naive(in))
	}
}

func TestLine3SkewedInstances(t *testing.T) {
	// Force both decomposition branches: some B-values far above τ, some
	// below.
	rng := rand.New(rand.NewSource(31))
	r1 := relation.New("R1", relation.NewSchema(1, 2))
	r2 := relation.New("R2", relation.NewSchema(2, 3))
	r3 := relation.New("R3", relation.NewSchema(3, 4))
	for i := 0; i < 60; i++ {
		r1.Add(relation.Value(i), 0) // heavy B=0
	}
	for i := 0; i < 20; i++ {
		r1.Add(relation.Value(100+i), relation.Value(1+i%5)) // light B
	}
	for b := 0; b < 6; b++ {
		for c := 0; c < 4; c++ {
			r2.Add(relation.Value(b), relation.Value(rng.Intn(8)))
		}
	}
	for i := 0; i < 30; i++ {
		r3.Add(relation.Value(i%8), relation.Value(i))
	}
	in := NewInstance(hypergraph.Line3(), r1.Dedup(), r2.Dedup(), r3.Dedup())
	c := mpc.NewCluster(5)
	relEqual(t, collected(in, Line3WithTau(c, in, 0, 7)), Naive(in))
}

func TestLine3EmptyOutput(t *testing.T) {
	r1 := relation.New("R1", relation.NewSchema(1, 2))
	r2 := relation.New("R2", relation.NewSchema(2, 3))
	r3 := relation.New("R3", relation.NewSchema(3, 4))
	r1.Add(1, 1)
	r2.Add(2, 2)
	r3.Add(3, 3)
	in := NewInstance(hypergraph.Line3(), r1, r2, r3)
	c := mpc.NewCluster(4)
	res := Line3WithTau(c, in, 0, 1)
	if res.Size() != 0 {
		t.Errorf("empty join produced %d tuples", res.Size())
	}
}

func TestLine3RejectsWrongShape(t *testing.T) {
	in := randInstance(rand.New(rand.NewSource(1)), hypergraph.StarK(3), 5, 3)
	c := mpc.NewCluster(2)
	defer func() {
		if recover() == nil {
			t.Fatal("Line3 on star query did not panic")
		}
	}()
	Line3WithTau(c, in, 0, 1)
}

// yannakakisHard builds the Figure 3 one-sided hard instance: A×B complete
// bipartite into a one-to-many B→C expansion into C×{d}: IN = Θ(n),
// OUT as requested, and |R1 ⋈ R2| = OUT while |R2 ⋈ R3| = O(n).
func yannakakisHard(n, out int) *Instance {
	domA := out / n // OUT/N values of A
	if domA < 1 {
		domA = 1
	}
	domB := n / domA // N²/OUT values of B
	if domB < 1 {
		domB = 1
	}
	r1 := relation.New("R1", relation.NewSchema(1, 2))
	for a := 0; a < domA; a++ {
		for b := 0; b < domB; b++ {
			r1.Add(relation.Value(a), relation.Value(b))
		}
	}
	r2 := relation.New("R2", relation.NewSchema(2, 3))
	for c := 0; c < n; c++ {
		r2.Add(relation.Value(c%domB), relation.Value(c))
	}
	r3 := relation.New("R3", relation.NewSchema(3, 4))
	for c := 0; c < n; c++ {
		r3.Add(relation.Value(c), 0)
	}
	return NewInstance(hypergraph.Line3(), r1, r2, r3)
}

func TestLine3BeatsYannakakisOnHardInstance(t *testing.T) {
	// Figure 3 / Section 4.1: with the bad join order Yannakakis pays
	// Θ(OUT/p); the decomposed algorithm stays near IN/p + √(IN·OUT/p).
	n, p := 512, 16
	out := n * 8 // OUT = 8·IN > IN
	in := yannakakisHard(n, out)
	want := NaiveCount(in)
	if want < int64(out)/2 {
		t.Fatalf("hard instance OUT = %d, expected ≈ %d", want, out)
	}

	cBad := mpc.NewCluster(p)
	emBad := counted(in, Yannakakis(cBad, in, []int{0, 1, 2}, 1)) // (R1 ⋈ R2) ⋈ R3
	if emBad.N != want {
		t.Fatalf("Yannakakis bad order wrong count %d, want %d", emBad.N, want)
	}

	cNew := mpc.NewCluster(p)
	emNew := counted(in, Line3WithTau(cNew, in, 0, 1))
	if emNew.N != want {
		t.Fatalf("Line3 wrong count %d, want %d", emNew.N, want)
	}

	inSize := float64(in.IN())
	bound := inSize/float64(p) + math.Sqrt(inSize*float64(want)/float64(p))
	if float64(cNew.MaxLoad()) > 8*bound {
		t.Errorf("Line3 load %d exceeds 8×(IN/p + √(IN·OUT/p)) = %.0f", cNew.MaxLoad(), 8*bound)
	}
	// The bad order must shuffle the Θ(OUT)-sized intermediate result: its
	// load is Ω(OUT/p), well above the new algorithm's.
	if cBad.MaxLoad() <= cNew.MaxLoad() {
		t.Errorf("expected bad-order Yannakakis (%d) to exceed Line3 (%d)",
			cBad.MaxLoad(), cNew.MaxLoad())
	}
}

func TestLine3DoubledHardInstanceNoGoodOrder(t *testing.T) {
	// Section 4.1's doubled instance: two copies in opposite directions.
	// EVERY join order of Yannakakis has a Θ(OUT)-sized intermediate, while
	// Line3's decomposition stays output-optimal.
	n, p := 256, 16
	out := n * 8
	a := yannakakisHard(n, out)
	b := yannakakisHard(n, out)
	// Mirror b (swap roles of R1/R3) and shift its domains to be disjoint.
	shift := relation.Value(1 << 20)
	mirror := func(r *relation.Relation, s1, s2 relation.Attr) *relation.Relation {
		nr := relation.New(r.Name, relation.NewSchema(s1, s2))
		for _, tu := range r.Tuples {
			nr.Add(tu[1]+shift, tu[0]+shift)
		}
		return nr
	}
	r1 := a.Rels[0].Clone()
	r2 := a.Rels[1].Clone()
	r3 := a.Rels[2].Clone()
	for _, tu := range mirror(b.Rels[2], 1, 2).Tuples {
		r1.Add(tu...)
	}
	for _, tu := range mirror(b.Rels[1], 2, 3).Tuples {
		r2.Add(tu...)
	}
	for _, tu := range mirror(b.Rels[0], 3, 4).Tuples {
		r3.Add(tu...)
	}
	in := NewInstance(hypergraph.Line3(), r1, r2, r3)
	want := NaiveCount(in)

	worstBest := 1 << 62
	for _, order := range [][]int{{0, 1, 2}, {2, 1, 0}} {
		c := mpc.NewCluster(p)
		em := counted(in, Yannakakis(c, in, order, 1))
		if em.N != want {
			t.Fatalf("order %v wrong count", order)
		}
		if c.MaxLoad() < worstBest {
			worstBest = c.MaxLoad()
		}
	}
	c := mpc.NewCluster(p)
	em := counted(in, Line3WithTau(c, in, 0, 1))
	if em.N != want {
		t.Fatalf("Line3 wrong count on doubled instance")
	}
	if c.MaxLoad() >= worstBest {
		t.Errorf("Line3 load %d should beat best Yannakakis order %d", c.MaxLoad(), worstBest)
	}
}
