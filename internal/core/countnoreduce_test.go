package core_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/hypergraph"
	"repro/internal/mpc"
	"repro/internal/relation"
	"repro/internal/runtime"
)

// The count runs no full reducer: a y = ∅ fold is blind to dangling tuples.
// These tests pin it to the retained reduce-then-fold body
// (CountWithReducerRef/LinearAggroRef, core/countref_test.go) and to the
// naive oracle, and pin the rounds the reducer cost.

// countCase is one instance the reducer-free count is checked on.
type countCase struct {
	name string
	in   *core.Instance
}

// line3Rels builds R1(1,2), R2(2,3), R3(3,4) with n rows each: row i of
// relation r is fill(r, i), two values.
func line3Rels(n int, fill func(r, i int) (relation.Value, relation.Value)) *core.Instance {
	q := hypergraph.Line3()
	rels := make([]*relation.Relation, 3)
	for r := range rels {
		rels[r] = relation.New(fmt.Sprintf("R%d", r+1), q.Edges[r].Schema())
		for i := 0; i < n; i++ {
			a, b := fill(r, i)
			rels[r].Add(a, b)
		}
	}
	return core.NewInstance(q, rels...)
}

func countCases() []countCase {
	rng := mpc.NewRng(35)
	var cases []countCase
	add := func(name string, in *core.Instance) { cases = append(cases, countCase{name, in}) }

	// Dangling-heavy: every relation on its own value range (nothing
	// joins), one empty relation, one relation that dangles whole while the
	// other two join, and a joining instance with danglers in every
	// relation.
	add("disjoint domains", line3Rels(60, func(r, i int) (relation.Value, relation.Value) {
		base := relation.Value(1000 * r)
		return base + relation.Value(i%7), base + relation.Value(i%11)
	}))
	empty := gen.Line3Random(rng, 300, 900)
	empty.Rels[1] = relation.New("R2", empty.Rels[1].Schema)
	add("one empty relation", empty)
	add("one relation dangles whole", line3Rels(60, func(r, i int) (relation.Value, relation.Value) {
		if r == 2 {
			return relation.Value(500 + i), relation.Value(i)
		}
		return relation.Value(i % 5), relation.Value(i % 6)
	}))
	partly := gen.Line3Random(rng, 300, 900)
	for r := range partly.Rels {
		partly = gen.WithDangling(partly, r, 40)
	}
	add("danglers in every relation", partly)

	// Bags on the three non-contained edges of a chain.
	add("bags", line3Rels(90, func(r, i int) (relation.Value, relation.Value) {
		return relation.Value(i % 4), relation.Value((i / 2) % 5)
	}))

	// R2(1) ⊆ R1(1,2) ⊇ R3(2): absorbed edges, duplicate-free (the directory
	// contract), with danglers on every side.
	q := hypergraph.New(hypergraph.NewAttrSet(1), hypergraph.NewAttrSet(1, 2), hypergraph.NewAttrSet(2))
	r1, r2, r3 := relation.New("R1", relation.NewSchema(1)), relation.New("R2", relation.NewSchema(1, 2)), relation.New("R3", relation.NewSchema(2))
	for i := 0; i < 12; i++ {
		r1.Add(relation.Value(i))
		r3.Add(relation.Value(2 * i))
	}
	for i := 0; i < 80; i++ {
		r2.Add(relation.Value(i%16), relation.Value(i%29))
	}
	add("contained edge", core.NewInstance(q, r1, r2, r3))

	// Two components, one of them a chain with danglers, one a product.
	forest := hypergraph.New(hypergraph.NewAttrSet(1, 2), hypergraph.NewAttrSet(2, 3),
		hypergraph.NewAttrSet(4), hypergraph.NewAttrSet(5, 6))
	add("cartesian forest", gen.WithDangling(gen.ForQuery(rng, forest, 10, 4), 1, 5))

	for i, e := range hypergraph.Catalog() {
		if e.Q.IsAcyclic() {
			add(e.Name, gen.WithDangling(gen.ForQuery(mpc.NewChildRng(35, i), e.Q, 48, 5), 0, 10))
		}
	}
	return cases
}

// withRing returns in under ring with annotations drawn from rng (0/1 for
// the boolean ring).
func withRing(in *core.Instance, ring relation.Semiring, rng *mpc.Rng) *core.Instance {
	out := in.Clone()
	out.Ring = ring
	for _, r := range out.Rels {
		r.Annots = make([]int64, r.Size())
		for i := range r.Annots {
			r.Annots[i] = 1
			if ring.Name != relation.BoolRing.Name {
				r.Annots[i] = int64(1 + rng.Intn(9))
			}
		}
	}
	return out
}

// dirtyPools runs an unrelated job so the record pools hold stale buffers.
func dirtyPools() func() {
	noise := gen.ForQuery(mpc.NewRng(7), hypergraph.LineK(4), 512, 5)
	return func() { core.Yannakakis(mpc.NewCluster(16), noise, nil, 7) }
}

// TestCountOutputMatchesReducerRef: on dangling-heavy instances, bags, a
// contained edge, a Cartesian forest and every acyclic catalog query, the
// reducer-free count equals the reduce-then-fold reference, which equals
// the naive oracle; under the max-plus and boolean semirings the y = ∅
// scalar equals the reference's too. Widths 1, 2 and 8, pools dirtied
// before every run.
func TestCountOutputMatchesReducerRef(t *testing.T) {
	dirty := dirtyPools()
	cases := countCases()
	for _, width := range []int{1, 2, 8} {
		prev := runtime.SetParallelism(width)
		for _, cs := range cases {
			t.Run(fmt.Sprintf("width=%d/%s", width, cs.name), func(t *testing.T) {
				want := core.NaiveCount(cs.in)
				dirty()
				ref := core.CountWithReducerRef(mpc.NewCluster(16), cs.in, 5)
				dirty()
				got := core.CountOutput(mpc.NewCluster(16), cs.in, 5)
				if got != ref || ref != want {
					t.Fatalf("count %d, reference %d, oracle %d", got, ref, want)
				}
				for _, ring := range []relation.Semiring{relation.MaxPlusRing, relation.BoolRing} {
					in := withRing(cs.in, ring, mpc.NewRng(uint64(width)))
					dirty()
					refScalar := core.LinearAggroRef(mpc.NewCluster(16), in, nil, 5).Scalar
					dirty()
					if s := core.LinearAggro(mpc.NewCluster(16), in, nil, 5).Scalar; s != refScalar {
						t.Fatalf("%s scalar %d, reference %d", ring.Name, s, refScalar)
					}
				}
			})
		}
		runtime.SetParallelism(prev)
	}
}

// TestLinearAggroFrontiersMatchReducerRef: with y ≠ ∅ the reducer stays, so
// the frontiers are Equal part for part to the reference's and the two
// clusters carry the same Snapshot. Widths 1, 2 and 8 on dirtied pools.
func TestLinearAggroFrontiersMatchReducerRef(t *testing.T) {
	cases := []struct {
		q *hypergraph.Hypergraph
		y hypergraph.AttrSet
	}{
		{hypergraph.Line3(), hypergraph.NewAttrSet(2, 3)},
		{hypergraph.Line3(), hypergraph.NewAttrSet(1, 2)},
		{hypergraph.Line3(), hypergraph.NewAttrSet(1, 2, 3, 4)},
		{hypergraph.LineK(4), hypergraph.NewAttrSet(1, 2)},
		{hypergraph.StarK(3), hypergraph.NewAttrSet(0)},
		{hypergraph.Q2Hierarchical(), hypergraph.NewAttrSet(1, 3)},
		{hypergraph.Fig5Example(), hypergraph.NewAttrSet(1, 2, 4)},
	}
	dirty := dirtyPools()
	for _, width := range []int{1, 2, 8} {
		prev := runtime.SetParallelism(width)
		for i, cs := range cases {
			t.Run(fmt.Sprintf("width=%d/%v/y=%v", width, cs.q, cs.y), func(t *testing.T) {
				in := gen.WithDangling(gen.ForQuery(mpc.NewChildRng(36, i), cs.q, 64, 5), 0, 10)
				in = withRing(in, relation.CountRing, mpc.NewRng(uint64(i)))
				ref, cur := mpc.NewCluster(8), mpc.NewCluster(8)
				dirty()
				want := core.LinearAggroRef(ref, in, cs.y, 3)
				dirty()
				got := core.LinearAggro(cur, in, cs.y, 3)
				if got.Scalar != want.Scalar || len(got.Frontiers) != len(want.Frontiers) {
					t.Fatalf("scalar %d over %d frontiers, reference %d over %d",
						got.Scalar, len(got.Frontiers), want.Scalar, len(want.Frontiers))
				}
				rows := 0
				for f := range got.Frontiers {
					g, w := got.Frontiers[f], want.Frontiers[f]
					rows += g.Size()
					if !g.Schema.Equal(w.Schema) {
						t.Fatalf("frontier %d over %v, reference over %v", f, g.Schema, w.Schema)
					}
					for s := range g.Parts {
						if !g.Parts[s].Equal(&w.Parts[s]) {
							t.Fatalf("frontier %d part %d differs from the reference", f, s)
						}
					}
				}
				if rows == 0 {
					t.Fatal("empty frontiers — the case aggregates nothing")
				}
				if !reflect.DeepEqual(cur.Snapshot(), ref.Snapshot()) {
					t.Fatal("the y ≠ ∅ path moved a charge")
				}
			})
		}
		runtime.SetParallelism(prev)
	}
}

// TestCountRoundsDropByTheReducer pins the rounds on line3_count's shape at
// p = 64 (every relation non-empty): count charges 3·2·(|E|−1) = 12 rounds
// fewer than the reduce-then-fold reference, 9 instead of 21, and line3 and
// acyclic, which count right after their own reducer, fall by the same 12
// from what they charged while the count reduced a second time. A reducer
// back on the scalar path fails here.
func TestCountRoundsDropByTheReducer(t *testing.T) {
	in, err := gen.Build("random", mpc.NewRng(2019), 32768, 524288)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range in.Rels {
		if r.Size() == 0 {
			t.Fatal("an empty relation: the reducer's semi-joins would not all run")
		}
	}
	const p, seed = 64, 2019
	reducer := 3 * 2 * (len(in.Q.Edges) - 1)
	rounds := func(run func(c *mpc.Cluster)) int {
		c := mpc.NewCluster(p)
		run(c)
		return c.Rounds()
	}
	ref := rounds(func(c *mpc.Cluster) { core.CountWithReducerRef(c, in, seed) })
	if ref != 21 {
		t.Fatalf("reference count charged %d rounds, want 21", ref)
	}
	cases := []struct {
		name   string
		run    func(c *mpc.Cluster)
		before int // rounds charged while the count ran the reducer
	}{
		{"count", func(c *mpc.Cluster) { core.CountOutput(c, in, seed) }, ref},
		{"line3", func(c *mpc.Cluster) { core.Line3(c, in, seed) }, 86},
		{"acyclic", func(c *mpc.Cluster) { core.AcyclicJoin(c, in, seed) }, 90},
	}
	for _, cs := range cases {
		if got := rounds(cs.run); got != cs.before-reducer {
			t.Errorf("%s charged %d rounds, want %d − %d = %d", cs.name, got, cs.before, reducer, cs.before-reducer)
		}
	}
}

// FuzzCountAgainstOracle draws a random join tree — contained edges and
// Cartesian forests included — skewed data with danglers, bags on the
// edges no other edge contains, empty relations, p and the data-plane
// width, and demands that the count, the naive oracle and the
// reduce-then-fold reference agree.
func FuzzCountAgainstOracle(f *testing.F) {
	f.Add(uint64(1), uint8(3), uint8(12), uint8(4), uint8(0))
	f.Add(uint64(2), uint8(5), uint8(10), uint8(3), uint8(1))
	f.Add(uint64(3), uint8(4), uint8(8), uint8(9), uint8(2))
	f.Add(uint64(4), uint8(1), uint8(6), uint8(2), uint8(3))
	f.Add(uint64(5), uint8(5), uint8(12), uint8(5), uint8(7))
	// A bag on (x2,x3) with the absorbed (x2) listed before it: the host's
	// own relation must not become its directory.
	f.Add(uint64(3), uint8(0x13), uint8(0x15), uint8(0x97), uint8(0x4f))
	dirty := dirtyPools()
	f.Fuzz(func(t *testing.T, seed uint64, nEdges, nRows, dom, flags uint8) {
		rng := mpc.NewRng(seed)
		q := randomJoinTree(rng, 1+int(nEdges)%5)
		// At most 12 rows per relation and 5 relations keep the oracle's
		// materialized join under 12^5 rows.
		in := randomCountData(rng, q, int(nRows)%13, 1+int(dom)%10, flags&1 != 0)
		p := 1 + rng.Intn(16)
		prev := runtime.SetParallelism([]int{1, 2, 8}[int(flags>>1)%3])
		defer runtime.SetParallelism(prev)

		want := core.NaiveCount(in)
		dirty()
		ref := core.CountWithReducerRef(mpc.NewCluster(p), in, seed)
		dirty()
		got := core.CountOutput(mpc.NewCluster(p), in, seed)
		if got != want || ref != want {
			t.Fatalf("%v at p=%d: count %d, reference %d, oracle %d", q, p, got, ref, want)
		}
	})
}

// randomJoinTree grows an acyclic query of k edges one node at a time: each
// new edge shares a subset of one earlier edge and adds fresh attributes,
// so the earlier edge is its join-tree parent. A new edge is contained in
// its parent when it adds nothing fresh, and starts a new component of the
// forest when it shares nothing.
func randomJoinTree(rng *mpc.Rng, k int) *hypergraph.Hypergraph {
	next := relation.Attr(1)
	fresh := func(n int) []relation.Attr {
		out := make([]relation.Attr, n)
		for i := range out {
			out[i], next = next, next+1
		}
		return out
	}
	edges := []hypergraph.AttrSet{hypergraph.NewAttrSet(fresh(1 + rng.Intn(3))...)}
	for len(edges) < k {
		var attrs []relation.Attr
		for _, a := range edges[rng.Intn(len(edges))] {
			if rng.Intn(2) == 0 {
				attrs = append(attrs, a)
			}
		}
		switch {
		case len(attrs) > 0 && rng.Intn(4) == 0: // contained in the parent
		case len(attrs) == 0 && rng.Intn(2) == 0: // a new component
			attrs = fresh(1 + rng.Intn(2))
		default:
			attrs = append(attrs, fresh(1+rng.Intn(2))...)
		}
		edges = append(edges, hypergraph.NewAttrSet(attrs...))
	}
	return hypergraph.New(edges...)
}

// randomCountData fills q with up to n rows per relation (an empty relation
// one time in eight), values zipf-skewed over [0, dom) with one in five
// fresh, so it dangles. Relations are sets unless bags is set, and then
// only the relations whose edge no other edge contains hold duplicates:
// an absorbed edge's rows are a lookup directory, which must not.
func randomCountData(rng *mpc.Rng, q *hypergraph.Hypergraph, n, dom int, bags bool) *core.Instance {
	value, fresh := gen.Zipf(rng, dom), relation.Value(1)<<40
	rels := make([]*relation.Relation, len(q.Edges))
	for i, e := range q.Edges {
		contained := false
		for j, o := range q.Edges {
			contained = contained || (j != i && e.SubsetOf(o))
		}
		rels[i] = relation.New(fmt.Sprintf("R%d", i+1), e.Schema())
		rows := n
		if rng.Intn(8) == 0 {
			rows = 0
		}
		seen := map[string]bool{}
		for r := 0; r < rows; r++ {
			t := make([]relation.Value, len(e))
			for c := range t {
				t[c] = value()
				if rng.Intn(5) == 0 {
					t[c], fresh = fresh, fresh+1
				}
			}
			key := relation.EncodeValues(t...)
			if seen[key] && (!bags || contained) {
				continue
			}
			seen[key] = true
			rels[i].Add(t...)
		}
	}
	return core.NewInstance(q, rels...)
}
