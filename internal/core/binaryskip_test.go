package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/hypergraph"
	"repro/internal/mpc"
	"repro/internal/relation"
	"repro/internal/runtime"
)

// binaryJoin routes a side without its semi-join exactly when the degree
// table proves the semi-join empty (Σ degrees = the side's row count).
// These tests hold it to the oracle and to the reference that always runs
// both degree lookups (BinaryJoinRef, binaryref_test.go): the same result
// multiset, no more load, and 3 rounds fewer per side whose every row has a
// partner, counted on the input relations.

// pairSpec describes R1(x1,x2) ⋈ R2(x2,x3), or R1(x1) × R2(x3) when
// cartesian. Every key 0…keys−1 gets 1…maxDeg rows on both sides, key 0
// hub more; then each side gets dangling rows, a fraction of its partnered
// rows, on keys the other side never holds. bags draws the non-key column
// from {0,1,2} so rows repeat; zeros draws each annotation from 0…3, else
// every annotation is 1.
type pairSpec struct {
	keys, maxDeg, hub      int
	dangleA, dangleB       float64
	bags, zeros, cartesian bool
}

func (ps pairSpec) build(rng *mpc.Rng) (r1, r2 *relation.Relation) {
	if ps.cartesian {
		r1, r2 = relation.New("R1", relation.NewSchema(1)), relation.New("R2", relation.NewSchema(3))
	} else {
		r1, r2 = relation.New("R1", relation.NewSchema(1, 2)), relation.New("R2", relation.NewSchema(2, 3))
	}
	free := 1 << 20
	if ps.bags {
		free = 3
	}
	add := func(r *relation.Relation, key int) {
		annot := int64(1)
		if ps.zeros {
			annot = int64(rng.Intn(4))
		}
		v, k := relation.Value(rng.Intn(free)), relation.Value(key)
		switch {
		case ps.cartesian:
			r.AddAnnotated(annot, v)
		case r == r1:
			r.AddAnnotated(annot, v, k)
		default:
			r.AddAnnotated(annot, k, v)
		}
	}
	for k := 0; k < ps.keys; k++ {
		n1, n2 := 1+rng.Intn(ps.maxDeg), 1+rng.Intn(ps.maxDeg)
		if k == 0 {
			n1, n2 = n1+ps.hub, n2+ps.hub
		}
		for range n1 {
			add(r1, k)
		}
		for range n2 {
			add(r2, k)
		}
	}
	for range int(ps.dangleA * float64(r1.Size())) {
		add(r1, ps.keys+rng.Intn(ps.keys+1))
	}
	for range int(ps.dangleB * float64(r2.Size())) {
		add(r2, -1-rng.Intn(ps.keys+1))
	}
	return r1, r2
}

// checkSkippingJoin runs BinaryJoin and the reference on r1 ⋈ r2 at p
// servers, pools dirtied before each, and demands the oracle's result, a
// load no higher than the reference's, and the reference's rounds less 3
// per side PartneredSides counts. heavy is the number of keys the
// reference's directory holds.
func checkSkippingJoin(t *testing.T, r1, r2 *relation.Relation, p int, seed uint64, dirty func()) (heavy int) {
	t.Helper()
	in := NewInstance(hypergraph.New(hypergraph.NewAttrSet(r1.Schema...), hypergraph.NewAttrSet(r2.Schema...)), r1, r2)
	skipped := PartneredSides(r1, r2)
	ref, cur := mpc.NewCluster(p), mpc.NewCluster(p)
	dirty()
	_, heavy, skips := BinaryJoinRef(mpc.FromRelation(ref, r1), mpc.FromRelation(ref, r2), in.Ring, seed)
	dirty()
	res := BinaryJoin(mpc.FromRelation(cur, r1), mpc.FromRelation(cur, r2), in.Ring, seed, nil)
	relEqual(t, res.ToRelation("got"), Naive(in))
	if len(skips) != skipped {
		t.Fatalf("the reference noted %d partnered sides, the inputs have %d", len(skips), skipped)
	}
	if cur.MaxLoad() > ref.MaxLoad() {
		t.Fatalf("load %d above the reference's %d", cur.MaxLoad(), ref.MaxLoad())
	}
	if got, want := cur.Rounds(), ref.Rounds()-3*skipped; got != want {
		t.Fatalf("%d rounds, want the reference's %d − 3·%d = %d", got, ref.Rounds(), skipped, want)
	}
	return heavy
}

// TestBinaryJoinSkipsOnlyIdentitySemiJoins: a side is routed as it is
// exactly when none of its rows dangles — bag rows and rows annotated 0
// included, since the degree table counts rows, not annotations — and a
// Cartesian product (one empty key, one degree row) skips both sides. Among
// light keys, a hub key reaches the heavy grids. Widths 1, 2 and 8, pools
// dirtied before every run.
func TestBinaryJoinSkipsOnlyIdentitySemiJoins(t *testing.T) {
	cases := []struct {
		name    string
		spec    pairSpec
		skipped int
	}{
		{"both reduced", pairSpec{keys: 24, maxDeg: 4, hub: 40}, 2},
		{"only a dangles", pairSpec{keys: 24, maxDeg: 4, hub: 40, dangleA: 0.5}, 1},
		{"only b dangles", pairSpec{keys: 24, maxDeg: 4, hub: 40, dangleB: 0.5}, 1},
		{"both dangle", pairSpec{keys: 24, maxDeg: 4, hub: 40, dangleA: 0.3, dangleB: 0.7}, 0},
		{"bags on the partnered side", pairSpec{keys: 8, maxDeg: 6, bags: true, dangleB: 0.25}, 1},
		{"annotated 0", pairSpec{keys: 24, maxDeg: 4, zeros: true}, 2},
		{"cartesian", pairSpec{keys: 6, maxDeg: 5, cartesian: true}, 2},
	}
	noise := randInstance(rand.New(rand.NewSource(7)), hypergraph.LineK(4), 512, 5)
	dirty := func() { Yannakakis(mpc.NewCluster(16), noise, nil, 7) }
	for _, width := range []int{1, 2, 8} {
		prev := runtime.SetParallelism(width)
		for i, cs := range cases {
			t.Run(fmt.Sprintf("width=%d/%s", width, cs.name), func(t *testing.T) {
				r1, r2 := cs.spec.build(mpc.NewRng(uint64(i)))
				if got := PartneredSides(r1, r2); got != cs.skipped {
					t.Fatalf("the inputs have %d partnered sides, the case is built for %d", got, cs.skipped)
				}
				if heavy := checkSkippingJoin(t, r1, r2, 8, 11, dirty); cs.spec.hub > 0 && heavy < 1 {
					t.Fatal("the heavy directory is empty — the hub no longer reaches the grids")
				}
			})
		}
		runtime.SetParallelism(prev)
	}
}

// FuzzBinaryJoinAgainstNaive draws two relations — a dangling fraction per
// side, 0 included, bags, annotations 0, a hub key, a Cartesian product —
// with p, the join seed and the data-plane width, and holds BinaryJoin to
// the naive oracle and to the reference's rounds less 3 per partnered side.
func FuzzBinaryJoinAgainstNaive(f *testing.F) {
	f.Add(uint64(1), uint8(12), uint8(4), uint8(0), uint8(0), uint8(8), uint8(0))
	f.Add(uint64(2), uint8(10), uint8(3), uint8(2), uint8(0), uint8(5), uint8(0x09))
	f.Add(uint64(3), uint8(9), uint8(5), uint8(0), uint8(3), uint8(15), uint8(0x12))
	f.Add(uint64(4), uint8(6), uint8(2), uint8(1), uint8(4), uint8(1), uint8(0x23))
	f.Add(uint64(5), uint8(5), uint8(6), uint8(0), uint8(0), uint8(3), uint8(0x04))
	f.Add(uint64(6), uint8(0), uint8(3), uint8(2), uint8(2), uint8(7), uint8(0x40))
	noise := randInstance(rand.New(rand.NewSource(7)), hypergraph.LineK(4), 512, 5)
	dirty := func() { Yannakakis(mpc.NewCluster(16), noise, nil, 7) }
	f.Fuzz(func(t *testing.T, seed uint64, keys, deg, dangleA, dangleB, p, flags uint8) {
		spec := pairSpec{
			keys: int(keys) % 16, maxDeg: 1 + int(deg)%6,
			dangleA: float64(dangleA%5) / 4, dangleB: float64(dangleB%5) / 4,
			bags: flags&1 != 0, zeros: flags&2 != 0, cartesian: flags&4 != 0,
		}
		if flags&8 != 0 {
			spec.hub = 30
		}
		if spec.cartesian {
			spec.dangleA, spec.dangleB = 0, 0
		}
		r1, r2 := spec.build(mpc.NewRng(seed))
		prev := runtime.SetParallelism([]int{1, 2, 8}[int(flags>>4)%3])
		defer runtime.SetParallelism(prev)
		before := func() {}
		if flags&0x40 != 0 {
			before = dirty
		}
		checkSkippingJoin(t, r1, r2, 1+int(p)%16, seed, before)
	})
}
