package core_test

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/hypergraph"
	"repro/internal/mpc"
	"repro/internal/relation"
	"repro/internal/runtime"
)

// The r-hierarchical plan (one hierNode tree per job, core/rhier.go) is
// held to the retained recursion that regroups and refolds at every node
// and every load probe (core/rhierref_test.go): the same parts, row for
// row, the same charges, and BinHC's search reads the same server count at
// every load target.

// rhierAlgo is RHier, or BinHC with or without the reducer.
type rhierAlgo struct {
	name          string
	binhc, reduce bool
}

var rhierAlgos = []rhierAlgo{{"rhier", false, false}, {"binhc", true, false}, {"binhc+reduce", true, true}}

// run runs a on the plan, or on the reference when ref.
func (a rhierAlgo) run(ref bool, c *mpc.Cluster, in *core.Instance, seed uint64) *mpc.Dist {
	switch {
	case !a.binhc && ref:
		return core.RHierRef(c, in, seed)
	case !a.binhc:
		return core.RHier(c, in, seed)
	case ref:
		return core.BinHCRef(c, in, seed, a.reduce)
	}
	return core.BinHC(c, in, seed, a.reduce)
}

// matchRHierRef runs algo on the plan and on the reference, each on a fresh
// p-server cluster after dirty, and fails unless the results' parts are
// Equal and the clusters' charges identical. It returns the plan's result.
func matchRHierRef(t *testing.T, algo int, in *core.Instance, p int, seed uint64, dirty func()) *mpc.Dist {
	t.Helper()
	a := rhierAlgos[algo]
	ref, cur := mpc.NewCluster(p), mpc.NewCluster(p)
	dirty()
	want := a.run(true, ref, in, seed)
	dirty()
	got := a.run(false, cur, in, seed)
	if !got.Schema.Equal(want.Schema) || len(got.Parts) != len(want.Parts) {
		t.Fatalf("%s: result over %v on %d parts, reference over %v on %d",
			a.name, got.Schema, len(got.Parts), want.Schema, len(want.Parts))
	}
	for s := range got.Parts {
		if !got.Parts[s].Equal(&want.Parts[s]) {
			t.Fatalf("%s: part %d differs from the reference recursion", a.name, s)
		}
	}
	if !reflect.DeepEqual(cur.Snapshot(), ref.Snapshot()) || cur.TotalComm() != ref.TotalComm() {
		t.Fatalf("%s: charges differ:\nref %+v (%d tuples)\ngot %+v (%d tuples)",
			a.name, ref.Snapshot(), ref.TotalComm(), cur.Snapshot(), cur.TotalComm())
	}
	return got
}

// TestRHierMatchesReference: on every r-hierarchical catalog query, the
// skewed hub star, the tall-flat hub, the fake hub, an annotated instance,
// a contained edge and a Cartesian product of joins, RHier and both BinHC
// variants give the reference's parts and charges at widths 1, 2 and 8 on
// dirtied pools, and BinHC's plan counts the reference's servers at every
// load target of its search range.
func TestRHierMatchesReference(t *testing.T) {
	type job struct {
		name string
		in   *core.Instance
	}
	var jobs []job
	for i, e := range hypergraph.Catalog() {
		if e.Q.IsRHierarchical() {
			jobs = append(jobs, job{e.Name, gen.ForQuery(mpc.NewChildRng(2019, i), e.Q, 96, 5)})
		}
	}
	q2 := gen.ForQuery(mpc.NewRng(3), hypergraph.Q2RHier(), 80, 6)
	contained := hypergraph.New(hypergraph.NewAttrSet(1, 2), hypergraph.NewAttrSet(2), hypergraph.NewAttrSet(1, 3), hypergraph.NewAttrSet(1))
	product := hypergraph.New(hypergraph.NewAttrSet(1), hypergraph.NewAttrSet(2, 3), hypergraph.NewAttrSet(3, 4))
	jobs = append(jobs,
		job{"RHierSkewed", gen.RHierSkewed(mpc.NewRng(5), 3, 24, 120)},
		job{"TallFlatSkewed", gen.TallFlatSkewed(40, 100)},
		job{"Q2FakeHub", gen.Q2FakeHub(120, 60)},
		job{"annotated Q2RHier", withRing(q2, relation.CountRing, mpc.NewRng(9))},
		job{"contained edge", gen.ForQuery(mpc.NewRng(11), contained, 90, 9)},
		job{"Cartesian of joins", gen.ForQuery(mpc.NewRng(13), product, 40, 5)},
	)
	dirty := dirtyPools()
	for _, width := range []int{1, 2, 8} {
		prev := runtime.SetParallelism(width)
		for _, j := range jobs {
			for algo := range rhierAlgos {
				t.Run(fmt.Sprintf("width=%d/%s/%s", width, j.name, rhierAlgos[algo].name), func(t *testing.T) {
					if res := matchRHierRef(t, algo, j.in, 16, 2019, dirty); res.Rel().Size() == 0 {
						t.Fatal("empty result: the case exercises nothing")
					}
				})
			}
		}
		runtime.SetParallelism(prev)
	}
	for _, j := range jobs {
		for _, reduce := range []bool{false, true} {
			if msg := core.PlanServersMismatch(j.in, 16, reduce); msg != "" {
				t.Errorf("%s, reduce=%v: %s", j.name, reduce, msg)
			}
		}
	}
}

// FuzzRHierAgainstNaive draws a random hierarchical query — each edge a
// path up a random attribute forest, some with a contained sub-path beside
// them — skewed data with danglers and empty relations, bags only on edges
// no other edge contains, annotations, p and the data-plane width. RHier
// and both BinHC variants must equal the naive oracle's multiset and the
// reference's parts and charges.
func FuzzRHierAgainstNaive(f *testing.F) {
	f.Add(uint64(1), uint8(4), uint8(3), uint8(10), uint8(4), uint8(0))
	f.Add(uint64(2), uint8(5), uint8(4), uint8(12), uint8(3), uint8(0x05))
	f.Add(uint64(3), uint8(3), uint8(5), uint8(8), uint8(6), uint8(0x0a))
	f.Add(uint64(4), uint8(6), uint8(2), uint8(12), uint8(2), uint8(0x13))
	f.Add(uint64(5), uint8(2), uint8(4), uint8(6), uint8(9), uint8(0x1e))
	dirty := dirtyPools()
	f.Fuzz(func(t *testing.T, seed uint64, nAttrs, nEdges, nRows, dom, flags uint8) {
		rng := mpc.NewRng(seed)
		q := randomHierarchical(rng, 1+int(nAttrs)%6, 1+int(nEdges)%4)
		if !q.IsRHierarchical() {
			t.Skip("not r-hierarchical")
		}
		// At most 12 rows per relation and 5 relations keep the oracle's
		// materialized join under 12^5 rows.
		in := randomCountData(rng, q, int(nRows)%13, 1+int(dom)%10, flags&1 != 0)
		if flags&2 != 0 {
			in = withRing(in, relation.CountRing, rng)
		}
		p := 1 + rng.Intn(16)
		prev := runtime.SetParallelism([]int{1, 2, 8}[int(flags>>2)%3])
		defer runtime.SetParallelism(prev)

		want := multiset(core.Naive(in))
		for algo := range rhierAlgos {
			got := matchRHierRef(t, algo, in, p, seed, dirty)
			if !slices.Equal(multiset(got.ToRelation("got")), want) {
				t.Fatalf("%v at p=%d: %s differs from the naive oracle", q, p, rhierAlgos[algo].name)
			}
		}
	})
}

// randomHierarchical grows a random attribute forest of n attributes (each
// new attribute a root one time in four) and draws k edges, each the path
// from a random attribute up to its root. One time in three the path comes
// with a contiguous part of it, a contained edge listed before it, so up to
// k+1 edges are drawn.
func randomHierarchical(rng *mpc.Rng, n, k int) *hypergraph.Hypergraph {
	parent := make([]int, n)
	for v := range parent {
		parent[v] = -1
		if v > 0 && rng.Intn(4) != 0 {
			parent[v] = rng.Intn(v)
		}
	}
	var edges []hypergraph.AttrSet
	for len(edges) < k {
		var path []relation.Attr
		for v := rng.Intn(n); v >= 0; v = parent[v] {
			path = append(path, relation.Attr(v+1))
		}
		if len(path) > 1 && rng.Intn(3) == 0 {
			i := rng.Intn(len(path))
			edges = append(edges, hypergraph.NewAttrSet(path[i:i+1+rng.Intn(len(path)-i)]...))
		}
		edges = append(edges, hypergraph.NewAttrSet(path...))
	}
	return hypergraph.New(edges...)
}

// multiset is r's rows projected onto the sorted schema, annotation
// included, as a sorted list.
func multiset(r *relation.Relation) []string {
	p := r.Project([]relation.Attr(r.Schema.Sorted()))
	rows := make([]string, p.Size())
	for i, t := range p.Tuples {
		rows[i] = relation.EncodeTuple(t) + relation.EncodeValues(relation.Value(p.Annot(i)))
	}
	slices.Sort(rows)
	return rows
}
