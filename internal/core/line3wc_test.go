package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/hypergraph"
	"repro/internal/mpc"
	"repro/internal/relation"
)

func TestLine3WorstCaseMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(70))
	for trial := 0; trial < 10; trial++ {
		in := randInstance(rng, hypergraph.Line3(), 30, 6)
		c := mpc.NewCluster(1 + rng.Intn(16))
		relEqual(t, collected(in, Line3WorstCase(c, in, uint64(trial))), Naive(in))
	}
}

func TestLine3WorstCaseLoad(t *testing.T) {
	// Balanced instance with OUT ≈ p·IN: the grid must stay near IN/√p.
	p := 16
	n := 512
	r1 := relation.New("R1", relation.NewSchema(1, 2))
	r2 := relation.New("R2", relation.NewSchema(2, 3))
	r3 := relation.New("R3", relation.NewSchema(3, 4))
	groups := 64
	per := n / groups
	for g := 0; g < groups; g++ {
		for i := 0; i < per; i++ {
			r1.Add(relation.Value(g*per+i), relation.Value(g))
			r3.Add(relation.Value(g), relation.Value(g*per+i))
		}
	}
	for b := 0; b < groups; b++ {
		for cv := 0; cv < groups; cv += 4 {
			r2.Add(relation.Value(b), relation.Value(cv))
		}
	}
	in := NewInstance(hypergraph.Line3(), r1, r2, r3)
	c := mpc.NewCluster(p)
	em := counted(in, Line3WorstCase(c, in, 1))
	if em.N != NaiveCount(in) {
		t.Fatalf("count = %d, want %d", em.N, NaiveCount(in))
	}
	bound := float64(in.IN()) / math.Sqrt(float64(p))
	if float64(c.MaxLoad()) > 4*bound {
		t.Errorf("worst-case line-3 load %d exceeds 4×IN/√p = %.0f", c.MaxLoad(), 4*bound)
	}
}

func TestLine3WorstCaseWinsWhenOutHuge(t *testing.T) {
	// Section 4.3 regime 3: OUT ≫ p·IN makes IN/√p beat √(IN·OUT/p).
	p := 16
	n := 64
	r1 := relation.New("R1", relation.NewSchema(1, 2))
	r2 := relation.New("R2", relation.NewSchema(2, 3))
	r3 := relation.New("R3", relation.NewSchema(3, 4))
	for i := 0; i < n; i++ {
		r1.Add(relation.Value(i), 0)
		r3.Add(0, relation.Value(i))
	}
	r2.Add(0, 0)
	in := NewInstance(hypergraph.Line3(), r1, r2, r3) // OUT = n² = 16·p·IN-ish
	want := NaiveCount(in)

	cWC := mpc.NewCluster(p)
	emWC := counted(in, Line3WorstCase(cWC, in, 1))
	if emWC.N != want {
		t.Fatalf("worst-case count = %d, want %d", emWC.N, want)
	}

	// The defining property of this algorithm: its load never depends on
	// OUT, staying within O(IN/√p) even at OUT = Θ(IN²).
	bound := float64(in.IN()) / math.Sqrt(float64(p))
	if float64(cWC.MaxLoad()) > 4*bound {
		t.Errorf("worst-case load %d exceeds 4×IN/√p = %.0f at OUT = IN²", cWC.MaxLoad(), 4*bound)
	}
}
