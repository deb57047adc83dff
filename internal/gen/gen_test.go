package gen

import (
	"testing"

	"repro/internal/core"
	"repro/internal/mpc"
	"repro/internal/relation"
)

func TestUniformDistinct(t *testing.T) {
	rng := mpc.NewRng(1)
	r := Uniform(rng, "R", relation.NewSchema(1, 2), 100, 50)
	if r.Size() != 100 {
		t.Fatalf("size = %d", r.Size())
	}
	if r.Dedup().Size() != 100 {
		t.Error("Uniform produced duplicates")
	}
}

func TestUniformSmallDomainTerminates(t *testing.T) {
	rng := mpc.NewRng(2)
	r := Uniform(rng, "R", relation.NewSchema(1), 100, 3)
	if r.Size() > 3 {
		t.Errorf("more distinct tuples (%d) than the domain allows", r.Size())
	}
}

func TestZipfSkewShape(t *testing.T) {
	rng := mpc.NewRng(3)
	draw := Zipf(rng, 100)
	counts := map[relation.Value]int{}
	for i := 0; i < 10000; i++ {
		counts[draw()]++
	}
	if counts[0] <= counts[50] {
		t.Errorf("zipf not skewed: c0=%d c50=%d", counts[0], counts[50])
	}
}

func TestYannakakisHardShape(t *testing.T) {
	n, out := 256, 2048
	in := YannakakisHard(n, out)
	if got := core.NaiveCount(in); got != int64(out) {
		t.Errorf("OUT = %d, want %d", got, out)
	}
	if in.IN() < 2*n || in.IN() > 4*n {
		t.Errorf("IN = %d, want Θ(%d)", in.IN(), 3*n)
	}
	// The asymmetry that makes order matter: |R1 ⋈ R2| = OUT, |R2 ⋈ R3| = N.
	r12 := core.InMemoryJoinCount(in.Rels[:2])
	r23 := core.InMemoryJoinCount(in.Rels[1:])
	if r12 != int64(out) {
		t.Errorf("|R1⋈R2| = %d, want %d", r12, out)
	}
	if r23 != int64(n) {
		t.Errorf("|R2⋈R3| = %d, want %d", r23, n)
	}
}

func TestYannakakisHardDoubledNoGoodOrder(t *testing.T) {
	n, out := 128, 1024
	in := YannakakisHardDoubled(n, out)
	want := 2 * int64(out)
	if got := core.NaiveCount(in); got != want {
		t.Fatalf("OUT = %d, want %d", got, want)
	}
	// Both prefix intermediates are now Θ(OUT).
	r12 := core.InMemoryJoinCount(in.Rels[:2])
	r23 := core.InMemoryJoinCount(in.Rels[1:])
	if r12 < int64(out) || r23 < int64(out) {
		t.Errorf("doubled instance intermediates %d,%d should both be ≥ %d", r12, r23, out)
	}
}

func TestLine3RandomSizes(t *testing.T) {
	rng := mpc.NewRng(4)
	inSize, out := 3000, 30000
	in := Line3Random(rng, inSize, out)
	if in.IN() < inSize/2 || in.IN() > 2*inSize {
		t.Errorf("IN = %d, want ≈ %d", in.IN(), inSize)
	}
	got := core.NaiveCount(in)
	if got < int64(out)/3 || got > 3*int64(out) {
		t.Errorf("OUT = %d, want ≈ %d", got, out)
	}
}

func TestTriangleRandomSizes(t *testing.T) {
	rng := mpc.NewRng(5)
	inSize, out := 3000, 12000
	in := TriangleRandom(rng, inSize, out)
	if in.IN() < inSize/2 || in.IN() > 2*inSize {
		t.Errorf("IN = %d, want ≈ %d", in.IN(), inSize)
	}
	got := core.NaiveCount(in)
	if got < int64(out)/3 || got > 3*int64(out) {
		t.Errorf("OUT = %d, want ≈ %d", got, out)
	}
}

func TestRHierSkewed(t *testing.T) {
	rng := mpc.NewRng(6)
	in := RHierSkewed(rng, 2, 50, 100)
	want := int64(2*50 + 100)
	if got := core.NaiveCount(in); got != want {
		t.Errorf("OUT = %d, want %d", got, want)
	}
}

func TestCartesianSizes(t *testing.T) {
	in := CartesianSizes(3, 4, 5)
	if got := core.NaiveCount(in); got != 60 {
		t.Errorf("OUT = %d, want 60", got)
	}
}

func TestTallFlatSkewed(t *testing.T) {
	in := TallFlatSkewed(10, 5)
	if got := core.NaiveCount(in); got != 105 {
		t.Errorf("OUT = %d, want 105", got)
	}
	if in.Q.Classify().String() != "tall-flat" {
		t.Errorf("query should be tall-flat, got %v", in.Q.Classify())
	}
}

func TestWithDangling(t *testing.T) {
	in := CartesianSizes(2, 2)
	before := core.NaiveCount(in)
	aug := WithDangling(in, 0, 10)
	if aug.Rels[0].Size() != in.Rels[0].Size()+10 {
		t.Error("dangling tuples not added")
	}
	// Cartesian product: every tuple joins, so the count grows — use a
	// joined query instead to check join-invariance.
	_ = before
	rng := mpc.NewRng(7)
	l3 := LineKUniform(rng, 3, 30, 5)
	b := core.NaiveCount(l3)
	aug2 := WithDangling(l3, 1, 20)
	if core.NaiveCount(aug2) != b {
		t.Error("dangling injection changed the join result")
	}
}

func TestLineKUniform(t *testing.T) {
	rng := mpc.NewRng(8)
	in := LineKUniform(rng, 4, 25, 5)
	if len(in.Rels) != 4 {
		t.Fatalf("relations = %d", len(in.Rels))
	}
	if in.IN() != 100 {
		t.Errorf("IN = %d, want 100", in.IN())
	}
}

// TestBuildRejectsBadSizes: sizes reach Build unchecked from the command
// line, so every family refuses in < 1 and out < 0 with an error — before
// its builder can divide by them or fall back to a default size — and
// still builds at the smallest valid sizes.
func TestBuildRejectsBadSizes(t *testing.T) {
	cases := []struct {
		in, out int
		ok      bool
	}{
		{0, 16, false}, {-5, 16, false}, {64, -1, false}, {0, -1, false},
		{64, 0, true}, {64, 256, true}, {1, 0, true},
	}
	for _, name := range FamilyNames() {
		for _, tc := range cases {
			inst, err := Build(name, mpc.NewRng(7), tc.in, tc.out)
			if tc.ok != (err == nil) || tc.ok != (inst != nil) {
				t.Errorf("Build(%q, in=%d, out=%d) = %v, %v; want ok=%v", name, tc.in, tc.out, inst != nil, err, tc.ok)
			}
		}
	}
}
