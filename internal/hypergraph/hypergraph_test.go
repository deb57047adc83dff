package hypergraph

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/relation"
)

func TestAttrSetOps(t *testing.T) {
	s := NewAttrSet(3, 1, 2, 3, 1)
	if !s.Equal(NewAttrSet(1, 2, 3)) {
		t.Fatalf("NewAttrSet dedup/sort failed: %v", s)
	}
	a := NewAttrSet(1, 2, 3)
	b := NewAttrSet(2, 3, 4)
	if !a.Intersect(b).Equal(NewAttrSet(2, 3)) {
		t.Errorf("Intersect = %v", a.Intersect(b))
	}
	if !a.Union(b).Equal(NewAttrSet(1, 2, 3, 4)) {
		t.Errorf("Union = %v", a.Union(b))
	}
	if !a.Minus(b).Equal(NewAttrSet(1)) {
		t.Errorf("Minus = %v", a.Minus(b))
	}
	if !NewAttrSet(1, 2).SubsetOf(a) || a.SubsetOf(b) {
		t.Errorf("SubsetOf wrong")
	}
	if !NewAttrSet(1).Disjoint(NewAttrSet(2)) || a.Disjoint(b) {
		t.Errorf("Disjoint wrong")
	}
	if !a.Has(2) || a.Has(9) {
		t.Errorf("Has wrong")
	}
}

func TestAttrSetEmpty(t *testing.T) {
	e := NewAttrSet()
	if !e.SubsetOf(NewAttrSet(1)) || !e.Disjoint(e) || len(e.Union(e)) != 0 {
		t.Error("empty set ops wrong")
	}
}

func TestGYOAcyclicCatalog(t *testing.T) {
	for _, c := range Catalog() {
		tree, ok := c.Q.GYO()
		wantAcyclic := c.Class != Cyclic
		if ok != wantAcyclic {
			t.Errorf("%s: GYO acyclic=%v, want %v", c.Name, ok, wantAcyclic)
			continue
		}
		if ok {
			c.Q.validateTree(tree)
			if len(tree.RemovalOrder) != len(c.Q.Edges) {
				t.Errorf("%s: removal order covers %d of %d edges",
					c.Name, len(tree.RemovalOrder), len(c.Q.Edges))
			}
		}
	}
}

func TestClassifyCatalog(t *testing.T) {
	for _, c := range Catalog() {
		if got := c.Q.Classify(); got != c.Class {
			t.Errorf("%s: Classify = %v, want %v", c.Name, got, c.Class)
		}
	}
}

func TestClassHierarchyIsCumulative(t *testing.T) {
	// tall-flat ⇒ hierarchical ⇒ r-hierarchical ⇒ acyclic on the catalog
	// and on random acyclic graphs below.
	for _, c := range Catalog() {
		q := c.Q
		if q.IsTallFlat() && len(q.Edges) > 1 && !q.IsHierarchical() {
			t.Errorf("%s: tall-flat but not hierarchical", c.Name)
		}
		if q.IsHierarchical() && !q.IsRHierarchical() {
			t.Errorf("%s: hierarchical but not r-hierarchical", c.Name)
		}
		if q.IsRHierarchical() && !q.IsAcyclic() {
			t.Errorf("%s: r-hierarchical but not acyclic", c.Name)
		}
	}
}

func TestFigure1StrictInclusions(t *testing.T) {
	// Witnesses that each inclusion in Figure 1 is strict.
	if q := Q2Hierarchical(); q.IsTallFlat() || !q.IsHierarchical() {
		t.Error("Q2 should separate hierarchical from tall-flat")
	}
	if q := RHierSimple(); q.IsHierarchical() || !q.IsRHierarchical() {
		t.Error("R1(A)⋈R2(A,B)⋈R3(B) should separate r-hierarchical from hierarchical")
	}
	if q := Line3(); q.IsRHierarchical() || !q.IsAcyclic() {
		t.Error("line-3 should separate acyclic from r-hierarchical")
	}
	if Triangle().IsAcyclic() {
		t.Error("triangle should be cyclic")
	}
}

func TestReduce(t *testing.T) {
	q := Q2RHier() // contains R4(x3,x5) ⊆ R3(x1,x3,x5) and R5(x5) ⊆ both
	r, host := q.Reduce()
	if len(r.Edges) != 3 {
		t.Fatalf("reduced to %d edges, want 3: %v", len(r.Edges), r)
	}
	if !r.IsHierarchical() {
		t.Error("reduced Q2RHier should be hierarchical")
	}
	for i := range q.Edges {
		h := host[i]
		if h < 0 || !q.Edges[i].SubsetOf(r.Edges[h]) {
			t.Errorf("edge %d host %d does not contain it", i, h)
		}
	}
}

func TestReduceEqualEdges(t *testing.T) {
	q := New(NewAttrSet(1, 2), NewAttrSet(1, 2), NewAttrSet(2, 3))
	r, host := q.Reduce()
	if len(r.Edges) != 2 {
		t.Fatalf("reduced to %d edges, want 2", len(r.Edges))
	}
	if host[0] != host[1] {
		t.Errorf("equal edges should share a host: %v", host)
	}
}

func TestAttributeForestQ1(t *testing.T) {
	f := Q1TallFlat().AttributeForest()
	// Figure 2 left: x1 - x2 - x3 - {x4,x5,x6}.
	if len(f.Roots) != 1 || f.Attrs[f.Roots[0]] != 1 {
		t.Fatalf("roots = %v", f.Roots)
	}
	anc := f.Ancestors(4)
	if len(anc) != 4 || anc[0] != 4 || anc[1] != 3 || anc[2] != 2 || anc[3] != 1 {
		t.Errorf("Ancestors(x4) = %v, want [4 3 2 1]", anc)
	}
	if n := f.Node(3); len(f.Children[n]) != 3 {
		t.Errorf("x3 should have 3 children, got %d", len(f.Children[n]))
	}
	if got := f.RootOf(6); got != 1 {
		t.Errorf("RootOf(x6) = %v, want x1", got)
	}
}

func TestAttributeForestQ2(t *testing.T) {
	f := Q2Hierarchical().AttributeForest()
	// Figure 2 right: x1 root; children x2, x3; x3's children x4, x5.
	if len(f.Roots) != 1 || f.Attrs[f.Roots[0]] != 1 {
		t.Fatalf("roots = %v", f.Roots)
	}
	n3 := f.Node(3)
	if f.Attrs[f.Parent[n3]] != 1 {
		t.Errorf("parent of x3 = %v, want x1", f.Attrs[f.Parent[n3]])
	}
	kids := f.Children[n3]
	if len(kids) != 2 {
		t.Fatalf("x3 children = %d, want 2", len(kids))
	}
	for _, a := range []relation.Attr{4, 5} {
		if f.Attrs[f.Parent[f.Node(a)]] != 3 {
			t.Errorf("parent of x%d should be x3", a)
		}
	}
}

func TestAttributeForestCartesian(t *testing.T) {
	f := CartesianK(3).AttributeForest()
	if len(f.Roots) != 3 {
		t.Errorf("Cartesian product forest should have 3 roots, got %d", len(f.Roots))
	}
}

func TestAttributeForestPanicsOnNonHierarchical(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AttributeForest on line-3 did not panic")
		}
	}()
	Line3().AttributeForest()
}

func TestMinimalPath3Line3(t *testing.T) {
	p, ok := Line3().MinimalPath3()
	if !ok {
		t.Fatal("line-3 should have a minimal path of length 3")
	}
	// Consecutive path attributes share an edge.
	for i := 0; i+1 < len(p); i++ {
		shared := false
		for _, e := range Line3().Edges {
			shared = shared || (e.Has(p[i]) && e.Has(p[i+1]))
		}
		if !shared {
			t.Errorf("path %v: no edge holds %d and %d", p, p[i], p[i+1])
		}
	}
}

func TestLemma2OnCatalog(t *testing.T) {
	for _, c := range Catalog() {
		if c.Class == Cyclic {
			continue
		}
		_, hasPath := c.Q.MinimalPath3()
		rhier := c.Q.IsRHierarchical()
		if hasPath == rhier {
			t.Errorf("%s: Lemma 2 violated: path=%v r-hier=%v", c.Name, hasPath, rhier)
		}
	}
}

// randomAcyclic generates a random α-acyclic hypergraph by building a random
// join tree: each node copies a random subset of its parent's attributes and
// adds fresh ones, which keeps every attribute's occurrence set connected.
func randomAcyclic(rng *rand.Rand, maxEdges, maxFresh int) *Hypergraph {
	m := 1 + rng.Intn(maxEdges)
	next := 0
	fresh := func() relation.Attr {
		next++
		return relation.Attr(next)
	}
	edges := make([]AttrSet, m)
	for i := 0; i < m; i++ {
		var base AttrSet
		if i > 0 {
			parent := edges[rng.Intn(i)]
			for _, a := range parent {
				if rng.Intn(2) == 0 {
					base = append(base, a)
				}
			}
		}
		nf := 1 + rng.Intn(maxFresh)
		for j := 0; j < nf; j++ {
			base = append(base, fresh())
		}
		edges[i] = NewAttrSet(base...)
	}
	return New(edges...)
}

func TestRandomAcyclicIsAcyclic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 300; i++ {
		q := randomAcyclic(rng, 6, 3)
		tree, ok := q.GYO()
		if !ok {
			t.Fatalf("randomAcyclic produced a cyclic graph: %v", q)
		}
		q.validateTree(tree)
	}
}

func TestLemma2Property(t *testing.T) {
	// On random acyclic hypergraphs: minimal path-3 exists ⟺ not
	// r-hierarchical (Lemma 2, both directions).
	rng := rand.New(rand.NewSource(11))
	seenRHier, seenNot := 0, 0
	for i := 0; i < 400; i++ {
		q := randomAcyclic(rng, 6, 3)
		_, hasPath := q.MinimalPath3()
		rhier := q.IsRHierarchical()
		if hasPath == rhier {
			t.Fatalf("Lemma 2 violated on %v: path=%v rhier=%v", q, hasPath, rhier)
		}
		if rhier {
			seenRHier++
		} else {
			seenNot++
		}
	}
	if seenRHier == 0 || seenNot == 0 {
		t.Errorf("generator not diverse: rhier=%d not=%d", seenRHier, seenNot)
	}
}

func TestClassHierarchyPropertyRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 300; i++ {
		q := randomAcyclic(rng, 6, 3)
		if q.IsTallFlat() && len(q.Edges) > 1 && !q.IsHierarchical() {
			t.Fatalf("tall-flat but not hierarchical: %v", q)
		}
		if q.IsHierarchical() && !q.IsRHierarchical() {
			t.Fatalf("hierarchical but not r-hierarchical: %v", q)
		}
	}
}

func TestEdgeCover(t *testing.T) {
	cases := []struct {
		name string
		q    *Hypergraph
		rho  int
	}{
		{"line-2", Line2(), 2},
		{"line-3", Line3(), 2},
		{"line-4", LineK(4), 3}, // 5 attrs, 2 per edge -> ceil(5/2)
		{"line-5", LineK(5), 3},
		{"star-3", StarK(3), 3},
		{"cartesian-3", CartesianK(3), 3},
		{"Q1", Q1TallFlat(), 3},
		{"single", New(NewAttrSet(1, 2)), 1},
	}
	for _, c := range cases {
		cover := c.q.EdgeCover()
		var u AttrSet
		for _, e := range cover {
			u = u.Union(c.q.Edges[e])
		}
		if !c.q.Attrs().SubsetOf(u) {
			t.Errorf("%s: cover %v does not cover all attrs", c.name, cover)
		}
		if len(cover) != c.rho {
			t.Errorf("%s: |cover| = %d, want %d", c.name, len(cover), c.rho)
		}
	}
}

func TestEdgeCoverPanicsOnCyclic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("EdgeCover on triangle did not panic")
		}
	}()
	Triangle().EdgeCover()
}

func TestEdgeCoverOptimalProperty(t *testing.T) {
	// The GYO-based cover must match the brute-force minimum cover size on
	// random acyclic graphs (Lemma 1: acyclic ⇒ integral optimum).
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 150; i++ {
		q := randomAcyclic(rng, 5, 2)
		got := len(q.EdgeCover())
		want := bruteMinCover(q)
		if got != want {
			t.Fatalf("cover size %d != brute force %d on %v", got, want, q)
		}
	}
}

func bruteMinCover(q *Hypergraph) int {
	all := q.Attrs()
	m := len(q.Edges)
	best := m
	for mask := 1; mask < 1<<m; mask++ {
		var u AttrSet
		n := 0
		for i := 0; i < m; i++ {
			if mask&(1<<i) != 0 {
				u = u.Union(q.Edges[i])
				n++
			}
		}
		if all.SubsetOf(u) && n < best {
			best = n
		}
	}
	return best
}

func TestFreeConnex(t *testing.T) {
	cases := []struct {
		name string
		q    *Hypergraph
		y    AttrSet
		want bool
	}{
		{"line-3 full output", Line3(), NewAttrSet(1, 2, 3, 4), true},
		{"line-3 ends only", Line3(), NewAttrSet(1, 4), false},
		{"line-3 prefix", Line3(), NewAttrSet(1, 2), true},
		{"line-3 middle", Line3(), NewAttrSet(2, 3), true},
		{"line-3 empty (count)", Line3(), NewAttrSet(), true},
		{"line-2 project shared", Line2(), NewAttrSet(2), true},
		{"Q2 single root", Q2Hierarchical(), NewAttrSet(1), true},
		{"triangle", Triangle(), NewAttrSet(1, 2), false},
		{"y not in Q", Line2(), NewAttrSet(99), false},
	}
	for _, c := range cases {
		w := WithOutput{Q: c.q, Y: c.y}
		if got := w.IsFreeConnex(); got != c.want {
			t.Errorf("%s: IsFreeConnex = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestOutHierarchical(t *testing.T) {
	// line-3 with y = {B,C}: residual {B},{B,C},{C} is r-hierarchical.
	w := WithOutput{Q: Line3(), Y: NewAttrSet(2, 3)}
	if !w.IsOutHierarchical() {
		t.Error("line-3 with y={B,C} should be out-hierarchical")
	}
	// line-4 with full output is acyclic but not out-hierarchical.
	full := LineK(4).Attrs()
	w2 := WithOutput{Q: LineK(4), Y: full}
	if w2.IsOutHierarchical() {
		t.Error("line-4 full output should not be out-hierarchical")
	}
}

func TestFreeConnexTree(t *testing.T) {
	w := WithOutput{Q: Line3(), Y: NewAttrSet(1, 2)}
	tree, virtual, ok := w.FreeConnexTree()
	if !ok {
		t.Fatal("expected free-connex tree")
	}
	if tree.Root != virtual || virtual != 3 {
		t.Errorf("root=%d virtual=%d, want both 3", tree.Root, virtual)
	}
	// Bottom-up order must place children before parents.
	pos := make(map[int]int)
	for i, u := range tree.RemovalOrder {
		pos[u] = i
	}
	for u, p := range tree.Parent {
		if p >= 0 && pos[u] > pos[p] {
			t.Errorf("node %d processed after its parent %d", u, p)
		}
	}
}

func TestOutputResidual(t *testing.T) {
	w := WithOutput{Q: Line3(), Y: NewAttrSet(2, 3)}
	res, src := w.OutputResidual()
	if len(res.Edges) != 3 {
		t.Fatalf("residual edges = %d, want 3", len(res.Edges))
	}
	if !res.Edges[0].Equal(NewAttrSet(2)) || !res.Edges[1].Equal(NewAttrSet(2, 3)) || !res.Edges[2].Equal(NewAttrSet(3)) {
		t.Errorf("residual = %v", res)
	}
	if src[0] != 0 || src[1] != 1 || src[2] != 2 {
		t.Errorf("src = %v", src)
	}
}

func TestFreeConnexResidualAcyclicProperty(t *testing.T) {
	// For free-connex (Q, y), the output residual must be acyclic — the
	// §6 pipeline depends on it.
	rng := rand.New(rand.NewSource(23))
	checked := 0
	for i := 0; i < 500; i++ {
		q := randomAcyclic(rng, 5, 2)
		attrs := q.Attrs()
		var y AttrSet
		for _, a := range attrs {
			if rng.Intn(2) == 0 {
				y = append(y, a)
			}
		}
		y = NewAttrSet(y...)
		w := WithOutput{Q: q, Y: y}
		if !w.IsFreeConnex() || len(y) == 0 {
			continue
		}
		checked++
		res, _ := w.OutputResidual()
		if !res.IsAcyclic() {
			t.Fatalf("free-connex residual cyclic: q=%v y=%v", q, y)
		}
	}
	if checked < 20 {
		t.Errorf("too few free-connex samples: %d", checked)
	}
}

func TestHypergraphString(t *testing.T) {
	if s := Line2().String(); s != "{(x1,x2),(x2,x3)}" {
		t.Errorf("String = %q", s)
	}
}

func TestEmptyHypergraph(t *testing.T) {
	h := New()
	if !h.IsAcyclic() {
		t.Error("empty hypergraph should be acyclic")
	}
	if len(h.Attrs()) != 0 {
		t.Error("empty hypergraph has attrs")
	}
}

// validateTree panics unless t is a structurally valid join tree for h:
// every attribute's edges form a connected subtree.
func (h *Hypergraph) validateTree(t *JoinTree) {
	for _, a := range h.Attrs() {
		// Nodes containing a must form a connected subtree.
		nodes := h.EdgesWith(a)
		if len(nodes) <= 1 {
			continue
		}
		in := make(map[int]bool, len(nodes))
		for _, u := range nodes {
			in[u] = true
		}
		// Climb from each node towards the root, counting distinct
		// "top" nodes: a connected subtree has exactly one node whose
		// parent is outside the set.
		tops := 0
		for _, u := range nodes {
			if t.Parent[u] < 0 || !in[t.Parent[u]] {
				tops++
			}
		}
		if tops != 1 {
			panic(fmt.Sprintf("hypergraph: join tree violates connectivity for attr %d", a))
		}
	}
}
