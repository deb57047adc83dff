package core

import (
	"math"
	"testing"

	"repro/internal/hypergraph"
	"repro/internal/mpc"
	"repro/internal/relation"
)

func productInstance(sizes ...int) *Instance {
	var edges []hypergraph.AttrSet
	rels := make([]*relation.Relation, len(sizes))
	for i, n := range sizes {
		a := relation.Attr(i + 1)
		edges = append(edges, hypergraph.NewAttrSet(a))
		r := relation.New("R", relation.NewSchema(a))
		for j := 0; j < n; j++ {
			r.Add(relation.Value(j))
		}
		rels[i] = r
	}
	return NewInstance(hypergraph.New(edges...), rels...)
}

func cartesianLower(sizes []int, p int) float64 {
	best := 0.0
	n := len(sizes)
	for mask := 1; mask < 1<<n; mask++ {
		prod, cnt := 1.0, 0
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				prod *= float64(sizes[i])
				cnt++
			}
		}
		if v := math.Pow(prod/float64(p), 1/float64(cnt)); v > best {
			best = v
		}
	}
	return best
}

func TestHyperCubeProductCorrect(t *testing.T) {
	in := productInstance(7, 5, 3)
	c := mpc.NewCluster(8)
	relEqual(t, collected(in, HyperCubeProduct(c, in, 1)), Naive(in))
}

// TestHyperCubeInstanceOptimalOnPaperExamples checks the Section 1.3
// discussion: the flat product (√IN, √IN, IN) and the skewed product
// (1, IN, IN) have different per-instance bounds, and HyperCube tracks each.
func TestHyperCubeInstanceOptimalOnPaperExamples(t *testing.T) {
	p := 16
	n := 1024
	s := 32 // √n
	cases := [][]int{
		{s, s, n}, // bound (OUT/p)^{1/3}-flavored
		{1, n, n}, // bound (OUT/p)^{1/2}: higher, because of skew
	}
	var loads []int
	var bounds []float64
	for _, sizes := range cases {
		in := productInstance(sizes...)
		c := mpc.NewCluster(p)
		em := counted(in, HyperCubeProduct(c, in, 1))
		want := int64(sizes[0]) * int64(sizes[1]) * int64(sizes[2])
		if em.N != want {
			t.Fatalf("product %v = %d, want %d", sizes, em.N, want)
		}
		lb := cartesianLower(sizes, p)
		if float64(c.MaxLoad()) > 8*(lb+float64(in.IN()/p)+float64(p)) {
			t.Errorf("sizes %v: load %d far above L_cartesian %.0f", sizes, c.MaxLoad(), lb)
		}
		loads = append(loads, c.MaxLoad())
		bounds = append(bounds, lb)
	}
	// The skewed instance's bound is strictly higher; the measured loads
	// must reflect the same ordering (the paper's instance-class point).
	if bounds[1] <= bounds[0] {
		t.Fatalf("expected skewed bound %.0f > flat bound %.0f", bounds[1], bounds[0])
	}
	if loads[1] <= loads[0] {
		t.Errorf("skewed product load %d should exceed flat product load %d", loads[1], loads[0])
	}
}

func TestHyperCubeProductRejectsSharedAttrs(t *testing.T) {
	in := NewInstance(hypergraph.Line2(),
		relation.New("R1", relation.NewSchema(1, 2)),
		relation.New("R2", relation.NewSchema(2, 3)))
	c := mpc.NewCluster(4)
	defer func() {
		if recover() == nil {
			t.Fatal("HyperCubeProduct on joined query did not panic")
		}
	}()
	HyperCubeProduct(c, in, 1)
}

// TestJoinProjectViaBoolRing: join-project queries π_y Q(R) are the
// special join-aggregate under the boolean semiring (Section 6).
func TestJoinProjectViaBoolRing(t *testing.T) {
	r1 := relation.New("R1", relation.NewSchema(1, 2))
	r2 := relation.New("R2", relation.NewSchema(2, 3))
	// Two A-values share B = 1; projecting to B collapses them.
	r1.Add(10, 1)
	r1.Add(11, 1)
	r1.Add(12, 2)
	r2.Add(1, 20)
	r2.Add(2, 21)
	r2.Add(3, 22) // dangling
	in := NewInstance(hypergraph.Line2(), r1, r2)
	in.Ring = relation.BoolRing
	c := mpc.NewCluster(4)
	got := Aggregate(c, in, hypergraph.NewAttrSet(2), 1)
	seen := map[relation.Value]int64{}
	for _, it := range got.All() {
		seen[it.T[0]] = it.A
	}
	if len(seen) != 2 || seen[1] != 1 || seen[2] != 1 {
		t.Errorf("π_B join-project = %v, want {1:1, 2:1}", seen)
	}
}
