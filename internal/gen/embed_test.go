package gen

import (
	"testing"

	"repro/internal/core"
	"repro/internal/hypergraph"
	"repro/internal/mpc"
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
