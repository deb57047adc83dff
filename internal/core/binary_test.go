package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/hypergraph"
	"repro/internal/mpc"
	"repro/internal/relation"
)

// relEqual compares two relations as multisets of (tuple, annot) pairs
// after projecting both onto the canonical sorted schema.
func relEqual(t *testing.T, got, want *relation.Relation) {
	t.Helper()
	canon := func(r *relation.Relation) []string {
		attrs := []relation.Attr(relation.Schema(r.Schema).Sorted())
		p := r.Project(attrs)
		keys := make([]string, p.Size())
		for i, tu := range p.Tuples {
			keys[i] = relation.EncodeTuple(tu) + relation.EncodeValues(relation.Value(p.Annot(i)))
		}
		sort.Strings(keys)
		return keys
	}
	g, w := canon(got), canon(want)
	if len(g) != len(w) {
		t.Fatalf("result size %d, want %d", len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("result differs from oracle at rank %d", i)
		}
	}
}

// collected replays res through EmitDist into a table over in's output
// schema: the result as a row-by-row observer sees it.
func collected(in *Instance, res *mpc.Dist) *relation.Relation {
	em := mpc.NewShardedEmitter(in.OutputSchema(), len(res.Parts))
	EmitDist(res, in.OutputSchema(), em)
	return em.Rel()
}

// counted is collected for a counting observer.
func counted(in *Instance, res *mpc.Dist) *mpc.CountEmitter {
	em := mpc.NewCountEmitter(in.Ring)
	EmitDist(res, in.OutputSchema(), em)
	return em
}

// randRel builds a random binary relation with given size and domains.
func randRel(rng *rand.Rand, name string, a1, a2 relation.Attr, n, d1, d2 int) *relation.Relation {
	r := relation.New(name, relation.NewSchema(a1, a2))
	for i := 0; i < n; i++ {
		r.Add(relation.Value(rng.Intn(d1)), relation.Value(rng.Intn(d2)))
	}
	return r.Dedup()
}

func TestBinaryJoinMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		r1 := randRel(rng, "R1", 1, 2, 30+rng.Intn(50), 10, 8)
		r2 := randRel(rng, "R2", 2, 3, 30+rng.Intn(50), 8, 10)
		in := NewInstance(hypergraph.Line2(), r1, r2)
		c := mpc.NewCluster(1 + rng.Intn(8))
		dists := LoadInstance(c, in)
		res := BinaryJoin(dists[0], dists[1], in.Ring, uint64(trial), nil)
		relEqual(t, res.ToRelation("got"), Naive(in))
	}
}

func TestBinaryJoinEmptySides(t *testing.T) {
	r1 := relation.New("R1", relation.NewSchema(1, 2))
	r2 := relation.New("R2", relation.NewSchema(2, 3))
	r1.Add(1, 1)
	in := NewInstance(hypergraph.Line2(), r1, r2)
	c := mpc.NewCluster(4)
	dists := LoadInstance(c, in)
	res := BinaryJoin(dists[0], dists[1], in.Ring, 1, nil)
	if res.Size() != 0 {
		t.Errorf("join with empty side returned %d tuples", res.Size())
	}
}

func TestBinaryJoinNoMatches(t *testing.T) {
	r1 := relation.New("R1", relation.NewSchema(1, 2))
	r2 := relation.New("R2", relation.NewSchema(2, 3))
	r1.Add(1, 10)
	r2.Add(20, 2)
	in := NewInstance(hypergraph.Line2(), r1, r2)
	c := mpc.NewCluster(4)
	dists := LoadInstance(c, in)
	res := BinaryJoin(dists[0], dists[1], in.Ring, 1, nil)
	if res.Size() != 0 {
		t.Errorf("disjoint join returned %d tuples", res.Size())
	}
}

func TestBinaryJoinCartesian(t *testing.T) {
	// Disjoint schemas: the join is a Cartesian product; the single
	// (empty) key is heavy and must be gridded, not hashed to one server.
	na, nb, p := 60, 40, 9
	r1 := relation.New("R1", relation.NewSchema(1))
	for i := 0; i < na; i++ {
		r1.Add(relation.Value(i))
	}
	r2 := relation.New("R2", relation.NewSchema(2))
	for i := 0; i < nb; i++ {
		r2.Add(relation.Value(i))
	}
	c := mpc.NewCluster(p)
	d1 := mpc.FromRelation(c, r1)
	d2 := mpc.FromRelation(c, r2)
	res := BinaryJoin(d1, d2, relation.CountRing, 3, nil)
	if res.Size() != na*nb {
		t.Fatalf("product size = %d, want %d", res.Size(), na*nb)
	}
	// No single server may hold anywhere near all of one side.
	bound := (na+nb)/p + int(math.Ceil(math.Sqrt(float64(na*nb)/float64(p))))
	if c.MaxLoad() > 6*bound {
		t.Errorf("cartesian MaxLoad = %d; target L0 = %d", c.MaxLoad(), bound)
	}
}

func TestBinaryJoinSkewedKeyLoad(t *testing.T) {
	// One B-value with high degree on both sides: OUT = 100·100; the heavy
	// grid must keep per-server load near IN/p + sqrt(OUT/p).
	n, p := 100, 16
	r1 := relation.New("R1", relation.NewSchema(1, 2))
	r2 := relation.New("R2", relation.NewSchema(2, 3))
	for i := 0; i < n; i++ {
		r1.Add(relation.Value(i), 7)
		r2.Add(7, relation.Value(i))
	}
	in := NewInstance(hypergraph.Line2(), r1, r2)
	c := mpc.NewCluster(p)
	dists := LoadInstance(c, in)
	res := BinaryJoin(dists[0], dists[1], in.Ring, 5, nil)
	if res.Size() != n*n {
		t.Fatalf("skewed join size = %d, want %d", res.Size(), n*n)
	}
	l0 := 2*n/p + int(math.Ceil(math.Sqrt(float64(n*n)/float64(p))))
	if c.MaxLoad() > 6*l0 {
		t.Errorf("skewed MaxLoad = %d, want O(L0) with L0 = %d", c.MaxLoad(), l0)
	}
	// A plain hash join would need load ≥ n on the heavy key's server;
	// ensure we are well below that.
	if c.MaxLoad() >= n {
		t.Errorf("heavy key not spread: load %d ≥ degree %d", c.MaxLoad(), n)
	}
}

func TestBinaryJoinAnnotations(t *testing.T) {
	r1 := relation.New("R1", relation.NewSchema(1, 2))
	r2 := relation.New("R2", relation.NewSchema(2, 3))
	r1.AddAnnotated(3, 1, 5)
	r2.AddAnnotated(4, 5, 2)
	in := NewInstance(hypergraph.Line2(), r1, r2)
	in.Ring = relation.CountRing
	c := mpc.NewCluster(2)
	dists := LoadInstance(c, in)
	res := BinaryJoin(dists[0], dists[1], in.Ring, 1, nil)
	items := res.All()
	if len(items) != 1 || items[0].A != 12 {
		t.Errorf("annotated join = %v, want one item with annot 12", items)
	}
}

func TestBinaryJoinEmitter(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	r1 := randRel(rng, "R1", 1, 2, 50, 6, 6)
	r2 := randRel(rng, "R2", 2, 3, 50, 6, 6)
	in := NewInstance(hypergraph.Line2(), r1, r2)
	c := mpc.NewCluster(4)
	dists := LoadInstance(c, in)
	em := mpc.NewCountEmitter(in.Ring)
	res := BinaryJoin(dists[0], dists[1], in.Ring, 1, em)
	if em.N != int64(res.Size()) {
		t.Errorf("emitter saw %d, result has %d", em.N, res.Size())
	}
}
