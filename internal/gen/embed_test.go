package gen

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/hypergraph"
	"repro/internal/mpc"
	"repro/internal/relation"
)

func TestEmbedLine3HardPreservesOutput(t *testing.T) {
	// Theorem 8: the embedded instance's join size equals the line-3 hard
	// instance's, on any acyclic non-r-hierarchical query.
	n, out := 128, 1024
	base := YannakakisHard(n, out)
	baseOut := core.NaiveCount(base)
	for _, q := range []*hypergraph.Hypergraph{
		hypergraph.Line3(),
		hypergraph.LineK(4),
		hypergraph.Fig5Example(),
	} {
		emb := EmbedLine3Hard(q, n, out)
		if got := core.NaiveCount(emb); got != baseOut {
			t.Errorf("%v: embedded OUT = %d, want %d", q, got, baseOut)
		}
	}
}

func TestEmbedLine3HardPanicsOnRHierarchical(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("EmbedLine3Hard on r-hierarchical query did not panic")
		}
	}()
	EmbedLine3Hard(hypergraph.Q2Hierarchical(), 64, 256)
}

func TestEmbedLine3HardRunsThroughAcyclicJoin(t *testing.T) {
	// The embedded instance is a legal instance of its query: the §5.1
	// algorithm must compute it exactly, and its load must reflect the
	// embedded line-3 hardness (well above linear).
	n, out := 256, 4096
	q := hypergraph.Fig5Example()
	in := EmbedLine3Hard(q, n, out)
	want := core.NaiveCount(in)
	c := mpc.NewCluster(16)
	if got := int64(core.AcyclicJoin(c, in, 1).Size()); got != want {
		t.Fatalf("AcyclicJoin on embedded instance = %d, want %d", got, want)
	}
}

// EmbedLine3Hard implements the Theorem 8 construction: given any acyclic
// but non-r-hierarchical query Q, it finds a minimal path of length 3
// (x1, x2, x3, x4) (Lemma 2) and builds an instance R' of Q whose join
// results are exactly those of the line-3 hard instance on the path's
// attributes — every other attribute has a singleton domain. Consequently
// the line-3 lower bound of Thm 6 (stats.Thm6) transfers to Q.
//
// The line-3 instance embedded is YannakakisHard(n, out); swap in
// Line3Random for the randomized construction.
func EmbedLine3Hard(q *hypergraph.Hypergraph, n, out int) *core.Instance {
	path, ok := q.MinimalPath3()
	if !ok {
		panic(fmt.Sprintf("gen: query %v has no minimal path of length 3 (it is r-hierarchical)", q))
	}
	base := YannakakisHard(n, out)
	return embedOnPath(q, path, base)
}

// embedOnPath builds R' per the three cases of Section 5.2:
//  1. edges disjoint from the path hold one all-zero tuple;
//  2. edges meeting the path in one attribute x_i enumerate dom(x_i);
//  3. edges meeting it in {x_i, x_{i+1}} replicate R_i's tuple pairs.
//
// Minimality of the path guarantees no edge meets it in a non-consecutive
// pair, so the case analysis is exhaustive.
func embedOnPath(q *hypergraph.Hypergraph, path [4]relation.Attr, base *core.Instance) *core.Instance {
	pathSet := hypergraph.NewAttrSet(path[:]...)
	idx := func(a relation.Attr) int {
		for i, x := range path {
			if x == a {
				return i
			}
		}
		return -1
	}
	// Domains of the path attributes, read off the base instance.
	doms := make([]map[relation.Value]bool, 4)
	for i := range doms {
		doms[i] = map[relation.Value]bool{}
	}
	collect := func(r *relation.Relation, pa, pb int, basePosA, basePosB int) {
		for _, t := range r.Tuples {
			doms[pa][t[basePosA]] = true
			doms[pb][t[basePosB]] = true
		}
	}
	collect(base.Rels[0], 0, 1, 0, 1)
	collect(base.Rels[1], 1, 2, 0, 1)
	collect(base.Rels[2], 2, 3, 0, 1)

	rels := make([]*relation.Relation, len(q.Edges))
	for ei, e := range q.Edges {
		schema := e.Schema()
		r := relation.New(fmt.Sprintf("R%d", ei), schema)
		inter := e.Intersect(pathSet)
		switch len(inter) {
		case 0:
			// Case 1: one tuple over singleton domains.
			r.Add(make([]relation.Value, len(schema))...)
		case 1:
			// Case 2: one tuple per domain value of the path attribute.
			pi := idx(inter[0])
			pos := schema.Pos(inter[0])
			for v := range doms[pi] {
				t := make([]relation.Value, len(schema))
				t[pos] = v
				r.Add(t...)
			}
		case 2:
			// Case 3: consecutive pair {x_i, x_{i+1}} — copy R_i's pairs.
			i, j := idx(inter[0]), idx(inter[1])
			if j < i {
				i, j = j, i
			}
			if j != i+1 {
				panic("gen: minimal path violated — non-consecutive pair in one edge")
			}
			src := base.Rels[i]
			posA := schema.Pos(path[i])
			posB := schema.Pos(path[i+1])
			for _, st := range src.Tuples {
				t := make([]relation.Value, len(schema))
				t[posA] = st[0]
				t[posB] = st[1]
				r.Add(t...)
			}
		default:
			panic("gen: edge contains ≥3 path attributes — path not minimal")
		}
		rels[ei] = r.Dedup()
	}
	return core.NewInstance(q, rels...)
}
