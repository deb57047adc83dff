package core

import (
	"math/rand"
	"testing"

	"repro/internal/hypergraph"
	"repro/internal/mpc"
	"repro/internal/relation"
)

// randInstance builds a random instance for an arbitrary hypergraph with
// per-attribute domain sizes, as sets.
func randInstance(rng *rand.Rand, q *hypergraph.Hypergraph, size int, dom int) *Instance {
	rels := make([]*relation.Relation, len(q.Edges))
	for i, e := range q.Edges {
		r := relation.New("R", e.Schema())
		for j := 0; j < size; j++ {
			t := make([]relation.Value, len(e))
			for k := range t {
				t[k] = relation.Value(rng.Intn(dom))
			}
			r.Add(t...)
		}
		rels[i] = r.Dedup()
	}
	return NewInstance(q, rels...)
}

// randBagInstance is randInstance without the dedup: over a small domain
// most rows repeat, and every row draws its own annotation from 1…3, so
// only bag semantics with per-row annotations reproduces the oracle.
func randBagInstance(rng *rand.Rand, q *hypergraph.Hypergraph, size int, dom int) *Instance {
	rels := make([]*relation.Relation, len(q.Edges))
	for i, e := range q.Edges {
		r := relation.New("R", e.Schema())
		for j := 0; j < size; j++ {
			t := make([]relation.Value, len(e))
			for k := range t {
				t[k] = relation.Value(rng.Intn(dom))
			}
			r.AddAnnotated(int64(1+rng.Intn(3)), t...)
		}
		rels[i] = r
	}
	return NewInstance(q, rels...)
}

func TestNaiveBasics(t *testing.T) {
	r1 := relation.New("R1", relation.NewSchema(1, 2))
	r2 := relation.New("R2", relation.NewSchema(2, 3))
	r1.Add(1, 10)
	r1.Add(2, 10)
	r2.Add(10, 5)
	in := NewInstance(hypergraph.Line2(), r1, r2)
	out := Naive(in)
	if out.Size() != 2 {
		t.Fatalf("naive join size = %d, want 2", out.Size())
	}
	if !out.Schema.Equal(relation.NewSchema(1, 2, 3)) {
		t.Errorf("schema = %v", out.Schema)
	}
}

func TestNaiveEmptyInstance(t *testing.T) {
	in := &Instance{Q: hypergraph.New(), Ring: relation.CountRing}
	out := Naive(in)
	if out.Size() != 1 {
		t.Errorf("empty join should have one empty tuple, got %d", out.Size())
	}
}

func TestNaiveSemiJoinReduce(t *testing.T) {
	r1 := relation.New("R1", relation.NewSchema(1, 2))
	r2 := relation.New("R2", relation.NewSchema(2, 3))
	r3 := relation.New("R3", relation.NewSchema(3, 4))
	r1.Add(1, 10)
	r1.Add(2, 11) // dangling: 11 not in R2
	r2.Add(10, 20)
	r2.Add(12, 21) // dangling: 12 not in R1
	r3.Add(20, 30)
	r3.Add(21, 31) // dangling after R2's (12,21) is removed
	in := NewInstance(hypergraph.Line3(), r1, r2, r3)
	red := NaiveSemiJoinReduce(in)
	if red.Rels[0].Size() != 1 || red.Rels[1].Size() != 1 || red.Rels[2].Size() != 1 {
		t.Errorf("reduced sizes = %d,%d,%d want 1,1,1",
			red.Rels[0].Size(), red.Rels[1].Size(), red.Rels[2].Size())
	}
	if NaiveCount(red) != NaiveCount(in) {
		t.Error("semi-join reduction changed the join result")
	}
}

func TestFullReduceMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 15; trial++ {
		in := randInstance(rng, hypergraph.Line3(), 30, 6)
		c := mpc.NewCluster(1 + rng.Intn(8))
		dists := LoadInstance(c, in)
		red := FullReduce(in, dists)
		want := NaiveSemiJoinReduce(in)
		for i := range red {
			relEqual(t, red[i].ToRelation("got"), want.Rels[i])
		}
	}
}

func TestDefaultJoinOrderConnected(t *testing.T) {
	for _, q := range []*hypergraph.Hypergraph{
		hypergraph.Line3(), hypergraph.LineK(5), hypergraph.StarK(4),
		hypergraph.Q1TallFlat(), hypergraph.Fig5Example(),
	} {
		order := DefaultJoinOrder(q)
		if len(order) != len(q.Edges) {
			t.Fatalf("order covers %d of %d", len(order), len(q.Edges))
		}
		acc := q.Edges[order[0]]
		for _, e := range order[1:] {
			if acc.Disjoint(q.Edges[e]) {
				t.Errorf("%v: order %v disconnects at edge %d", q, order, e)
			}
			acc = acc.Union(q.Edges[e])
		}
	}
}

func TestYannakakisMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	queries := []*hypergraph.Hypergraph{
		hypergraph.Line2(), hypergraph.Line3(), hypergraph.LineK(4),
		hypergraph.StarK(3), hypergraph.Q2Hierarchical(), hypergraph.Fig5Example(),
	}
	for _, q := range queries {
		for trial := 0; trial < 5; trial++ {
			in := randInstance(rng, q, 20, 4)
			c := mpc.NewCluster(1 + rng.Intn(8))
			relEqual(t, collected(in, Yannakakis(c, in, nil, uint64(trial))), Naive(in))
		}
	}
}

func TestYannakakisCustomOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	in := randInstance(rng, hypergraph.Line3(), 40, 5)
	want := Naive(in)
	for _, order := range [][]int{{0, 1, 2}, {2, 1, 0}, {1, 0, 2}, {1, 2, 0}} {
		c := mpc.NewCluster(4)
		relEqual(t, collected(in, Yannakakis(c, in, order, 3)), want)
	}
}

func TestYannakakisWrongOrderLengthPanics(t *testing.T) {
	in := randInstance(rand.New(rand.NewSource(1)), hypergraph.Line3(), 5, 3)
	c := mpc.NewCluster(2)
	defer func() {
		if recover() == nil {
			t.Fatal("bad order length did not panic")
		}
	}()
	Yannakakis(c, in, []int{0, 1}, 1)
}
