package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/hypergraph"
	"repro/internal/mpc"
	"repro/internal/relation"
)

// canonical renders a result relation as a sorted multiset fingerprint.
func canonical(r *relation.Relation) []string {
	attrs := []relation.Attr(relation.Schema(r.Schema).Sorted())
	p := r.Project(attrs)
	keys := make([]string, p.Size())
	for i, tu := range p.Tuples {
		keys[i] = relation.EncodeTuple(tu) + relation.EncodeValues(relation.Value(p.Annot(i)))
	}
	sortStrings(keys)
	return keys
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func sameResults(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestPropertyAllAlgorithmsAgree: on random instances of each query class,
// every applicable full-join algorithm produces exactly the oracle's result
// multiset. Driven by testing/quick over (seed, p) pairs; half the draws
// are bags — duplicate rows with per-row annotations. Bags are drawn only
// for queries without a contained edge: a contained edge is folded into its
// host through the unique-key Lookup (and RHier's foldInto), which reject
// duplicate keys with a panic by design.
func TestPropertyAllAlgorithmsAgree(t *testing.T) {
	type algo struct {
		name    string
		applies func(q *hypergraph.Hypergraph) bool
		run     func(c *mpc.Cluster, in *Instance) *mpc.Dist
	}
	acyclic := func(q *hypergraph.Hypergraph) bool { return q.IsAcyclic() }
	algos := []algo{
		{"yannakakis", acyclic, func(c *mpc.Cluster, in *Instance) *mpc.Dist {
			return Yannakakis(c, in, nil, 1)
		}},
		{"acyclic", acyclic, func(c *mpc.Cluster, in *Instance) *mpc.Dist {
			return AcyclicJoin(c, in, 1)
		}},
		{"rhier", (*hypergraph.Hypergraph).IsRHierarchical, func(c *mpc.Cluster, in *Instance) *mpc.Dist {
			return RHier(c, in, 1)
		}},
		{"binhc", (*hypergraph.Hypergraph).IsRHierarchical, func(c *mpc.Cluster, in *Instance) *mpc.Dist {
			return BinHC(c, in, 1, false)
		}},
		{"line3", IsLine3Query, func(c *mpc.Cluster, in *Instance) *mpc.Dist {
			return Line3(c, in, 1)
		}},
		{"line3wc", IsLine3Query, func(c *mpc.Cluster, in *Instance) *mpc.Dist {
			return Line3WorstCase(c, in, 1)
		}},
		{"hypercube", IsProductQuery, func(c *mpc.Cluster, in *Instance) *mpc.Dist {
			return HyperCubeProduct(c, in, 1)
		}},
		{"triangle", IsTriangleQuery, func(c *mpc.Cluster, in *Instance) *mpc.Dist {
			return Triangle(c, in, 1)
		}},
	}
	queries := []*hypergraph.Hypergraph{
		hypergraph.Line2(), hypergraph.Line3(), hypergraph.StarK(3),
		hypergraph.Q2Hierarchical(), hypergraph.RHierSimple(), hypergraph.Fig5Example(),
		hypergraph.Triangle(), hypergraph.CartesianK(3),
	}
	f := func(seed int64, pRaw uint8) bool {
		p := int(pRaw%8) + 1
		rng := rand.New(rand.NewSource(seed))
		q := queries[rng.Intn(len(queries))]
		build := randInstance
		if reduced, _ := q.Reduce(); rng.Intn(2) == 1 && len(reduced.Edges) == len(q.Edges) {
			build = randBagInstance
		}
		size := 10 + rng.Intn(10)
		if IsProductQuery(q) {
			size = 3 + rng.Intn(4) // OUT is size³
		}
		in := build(rng, q, size, 4)
		want := canonical(Naive(in))
		for _, a := range algos {
			if !a.applies(q) {
				continue
			}
			c := mpc.NewCluster(p)
			if !sameResults(canonical(collected(in, a.run(c, in))), want) {
				t.Logf("%s disagrees on %v (seed %d, p %d)", a.name, q, seed, p)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestPropertyAcyclicLoadBound: the §5.1 algorithm's measured load stays
// within a constant factor of IN/p + √(IN·OUT/p) across random instances.
func TestPropertyAcyclicLoadBound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		qs := []*hypergraph.Hypergraph{hypergraph.Line3(), hypergraph.LineK(4), hypergraph.StarK(3)}
		q := qs[rng.Intn(len(qs))]
		in := randInstance(rng, q, 30+rng.Intn(40), 6)
		p := 4 + rng.Intn(12)
		c := mpc.NewCluster(p)
		em := counted(in, AcyclicJoin(c, in, uint64(seed)))
		inSize := float64(in.IN())
		bound := inSize/float64(p) + math.Sqrt(inSize*float64(em.N)/float64(p)) + float64(4*p)
		if float64(c.MaxLoad()) > 10*bound {
			t.Logf("load %d > 10×bound %.0f on %v seed %d p %d OUT %d",
				c.MaxLoad(), bound, q, seed, p, em.N)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestPropertyFullReduceIdempotent: reducing twice equals reducing once,
// and reduction never changes the join result.
func TestPropertyFullReduceIdempotent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := randInstance(rng, hypergraph.LineK(4), 25, 4)
		c := mpc.NewCluster(4)
		dists := LoadInstance(c, in)
		once := FullReduce(in, dists)
		twice := FullReduce(in, once)
		for i := range once {
			if !sameResults(canonical(once[i].ToRelation("a")), canonical(twice[i].ToRelation("b"))) {
				return false
			}
		}
		redInst := &Instance{Q: in.Q, Rels: materialize(once), Ring: in.Ring}
		return NaiveCount(redInst) == NaiveCount(in)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestPropertyCountOutputAgrees: CountOutput equals the oracle on random
// acyclic instances of varying shape.
func TestPropertyCountOutputAgrees(t *testing.T) {
	queries := []*hypergraph.Hypergraph{
		hypergraph.Line2(), hypergraph.Line3(), hypergraph.LineK(5),
		hypergraph.StarK(4), hypergraph.Q1TallFlat(), hypergraph.Fig5Example(),
	}
	f := func(seed int64, pRaw uint8) bool {
		p := int(pRaw%16) + 1
		rng := rand.New(rand.NewSource(seed))
		q := queries[rng.Intn(len(queries))]
		in := randInstance(rng, q, 10+rng.Intn(20), 5)
		c := mpc.NewCluster(p)
		return CountOutput(c, in, uint64(seed)) == NaiveCount(in)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestPropertyEmitterConsistency: the result Dist returned by an algorithm
// and the tuples an observer of it is handed are the same multiset.
func TestPropertyEmitterConsistency(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := randInstance(rng, hypergraph.Line3(), 25, 5)
		c := mpc.NewCluster(5)
		res := Line3(c, in, uint64(seed))
		return sameResults(
			canonical(res.Project(in.OutputSchema()).ToRelation("res")),
			canonical(collected(in, res)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestPropertyLInstanceMonotone: adding tuples never decreases the
// per-instance lower bound on reduced instances.
func TestPropertyLInstanceMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		small := randInstance(rng, hypergraph.RHierSimple(), 10, 4)
		big := small.Clone()
		extra := randInstance(rng, hypergraph.RHierSimple(), 10, 4)
		for i, r := range extra.Rels {
			for _, tu := range r.Tuples {
				big.Rels[i].Add(tu...)
			}
			big.Rels[i] = big.Rels[i].Dedup()
		}
		sr := NaiveSemiJoinReduce(small)
		br := NaiveSemiJoinReduce(big)
		return LInstance(br, 8) >= LInstance(sr, 8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
