package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/hypergraph"
	"repro/internal/mpc"
	"repro/internal/relation"
)

func TestTriangleMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	for trial := 0; trial < 10; trial++ {
		in := randInstance(rng, hypergraph.Triangle(), 30, 6)
		c := mpc.NewCluster(1 + rng.Intn(27))
		relEqual(t, collected(in, Triangle(c, in, uint64(trial))), Naive(in))
	}
}

func TestTriangleAnnotated(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	in := randInstance(rng, hypergraph.Triangle(), 20, 4)
	for i, r := range in.Rels {
		r.Annots = make([]int64, r.Size())
		for j := range r.Annots {
			r.Annots[j] = int64(1 + (i+2*j)%3)
		}
	}
	c := mpc.NewCluster(8)
	relEqual(t, collected(in, Triangle(c, in, 1)), Naive(in))
}

// TestTriangleBagSemantics: duplicate rows keep their multiplicity and
// their own annotations, as in core.Naive. The first instance is the
// minimal one — two identical R2 rows must yield two results (annotation
// sum 2·1 + 3·1), where one map entry per A-value used to yield one — the
// rest are random instances drawn with duplicates and distinct annotations.
func TestTriangleBagSemantics(t *testing.T) {
	r1 := relation.New("R1", relation.NewSchema(2, 3))
	r2 := relation.New("R2", relation.NewSchema(1, 3))
	r3 := relation.New("R3", relation.NewSchema(1, 2))
	r1.Add(10, 20)
	r2.AddAnnotated(2, 5, 20)
	r2.AddAnnotated(3, 5, 20)
	r3.Add(5, 10)
	in := NewInstance(hypergraph.Triangle(), r1, r2, r3)
	count := counted(in, Triangle(mpc.NewCluster(8), in, 1))
	if count.N != 2 || count.AnnotSum != 5 {
		t.Fatalf("duplicate R2 rows: OUT %d annotation sum %d, want 2 and 5", count.N, count.AnnotSum)
	}

	rng := rand.New(rand.NewSource(63))
	for trial := 0; trial < 10; trial++ {
		in := randBagInstance(rng, hypergraph.Triangle(), 40, 4)
		relEqual(t, collected(in, Triangle(mpc.NewCluster(1+rng.Intn(27)), in, uint64(trial))), Naive(in))
	}
}

func TestTriangleWorstCaseLoad(t *testing.T) {
	// Dense random instance: load should track IN/p^{2/3}, not IN.
	n, p := 600, 27
	rng := rand.New(rand.NewSource(62))
	dom := 40
	mk := func(a1, a2 relation.Attr) *relation.Relation {
		r := relation.New("R", relation.NewSchema(a1, a2))
		for i := 0; i < n; i++ {
			r.Add(relation.Value(rng.Intn(dom)), relation.Value(rng.Intn(dom)))
		}
		return r.Dedup()
	}
	in := NewInstance(hypergraph.Triangle(), mk(2, 3), mk(1, 3), mk(1, 2))
	c := mpc.NewCluster(p)
	em := counted(in, Triangle(c, in, 1))
	if em.N != NaiveCount(in) {
		t.Fatalf("triangle count = %d, want %d", em.N, NaiveCount(in))
	}
	inSize := float64(in.IN())
	bound := inSize / math.Pow(float64(p), 2.0/3.0)
	if float64(c.MaxLoad()) > 6*bound {
		t.Errorf("triangle load %d exceeds 6×IN/p^(2/3) = %.0f", c.MaxLoad(), 6*bound)
	}
}

func TestTriangleRejectsNonTriangle(t *testing.T) {
	in := randInstance(rand.New(rand.NewSource(1)), hypergraph.Line3(), 5, 3)
	c := mpc.NewCluster(8)
	defer func() {
		if recover() == nil {
			t.Fatal("Triangle on line-3 did not panic")
		}
	}()
	Triangle(c, in, 1)
}
