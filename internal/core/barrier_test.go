package core

import (
	"testing"

	"repro/internal/hypergraph"
	"repro/internal/mpc"
	"repro/internal/relation"
)

// q2FakeHub mirrors gen.Q2FakeHub locally (core cannot import gen).
func q2FakeHub(real, fakeDeg int) *Instance {
	q := hypergraph.Q2Hierarchical()
	r1 := relation.New("R1", relation.NewSchema(1, 2))
	r2 := relation.New("R2", relation.NewSchema(1, 3, 4))
	r3 := relation.New("R3", relation.NewSchema(1, 3, 5))
	for a := 0; a < real; a++ {
		v := relation.Value(a)
		r1.Add(v, v)
		r2.Add(v, v, v)
		r3.Add(v, v, v)
	}
	const fakeA = relation.Value(1) << 35
	base2 := relation.Value(1) << 36
	base3 := relation.Value(1) << 37
	r1.Add(fakeA, 0)
	for i := 0; i < fakeDeg; i++ {
		r2.Add(fakeA, base2+relation.Value(i), relation.Value(i))
		r3.Add(fakeA, base3+relation.Value(i), relation.Value(i))
	}
	return NewInstance(q, r1, r2, r3)
}

// TestOneRoundDanglingBarrier is Table 1's one-round column in executable
// form: on a hierarchical instance whose dangling block has a huge degree
// product but zero output, the one-round BinHC must inflate its load target
// to fit the phantom grid in its server budget, while removing dangling
// tuples first (reduce+BinHC, or RHier) stays near IN/p + L_instance.
func TestOneRoundDanglingBarrier(t *testing.T) {
	p := 64
	in := q2FakeHub(2048, 8192)
	want := NaiveCount(in)
	if want != 2048 {
		t.Fatalf("fake hub leaked into the output: OUT = %d", want)
	}

	cOne := mpc.NewCluster(p)
	emOne := counted(in, BinHC(cOne, in, 1, false))
	if emOne.N != want {
		t.Fatalf("one-round BinHC wrong count %d", emOne.N)
	}

	cRed := mpc.NewCluster(p)
	emRed := counted(in, BinHC(cRed, in, 1, true))
	if emRed.N != want {
		t.Fatalf("reduce+BinHC wrong count %d", emRed.N)
	}

	cRH := mpc.NewCluster(p)
	emRH := counted(in, RHier(cRH, in, 1))
	if emRH.N != want {
		t.Fatalf("RHier wrong count %d", emRH.N)
	}

	// The phantom grid forces the one-round load target up to roughly
	// fakeDeg/√(2p) ≈ 724, while the input floor is only IN/p ≈ 354.
	if cOne.MaxLoad() <= 3*cRed.MaxLoad()/2 {
		t.Errorf("one-round BinHC (%d) should pay the dangling barrier vs reduce+BinHC (%d)",
			cOne.MaxLoad(), cRed.MaxLoad())
	}
	if cOne.MaxLoad() <= 3*cRH.MaxLoad()/2 {
		t.Errorf("one-round BinHC (%d) should pay the dangling barrier vs RHier (%d)",
			cOne.MaxLoad(), cRH.MaxLoad())
	}
}
