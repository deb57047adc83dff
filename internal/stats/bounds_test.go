package stats

import (
	"math"
	"testing"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol*math.Max(1, math.Abs(b)) }

// at binds the scalar variables.
func at(in int, out int64, p int) Vars { return Vars{IN: in, OUT: out, P: p} }

func TestLinear(t *testing.T) {
	if Linear.Eval(at(1000, 0, 10)) != 100 {
		t.Error("Linear wrong")
	}
}

func TestYannakakisBound(t *testing.T) {
	if got := Yannakakis.Eval(at(1000, 5000, 10)); got != 600 {
		t.Errorf("Yannakakis = %v", got)
	}
}

func TestAcyclicBoundImprovesOnYannakakis(t *testing.T) {
	// For OUT > p·IN the dominant terms give a ratio of
	// (OUT/p) / √(IN·OUT/p) = √(OUT/(IN·p)).
	in, p := 10000, 100
	out := int64(40000000) // OUT = 4000·IN = 40·p·IN
	y := Yannakakis.Eval(at(in, out, p))
	a := Thm7.Eval(at(in, out, p))
	if a >= y {
		t.Errorf("Thm 7 %v should beat Yannakakis %v", a, y)
	}
	wantRatio := math.Sqrt(float64(out) / (float64(in) * float64(p)))
	if !approx(y/a, wantRatio, 0.2) {
		t.Errorf("improvement ratio %v, want ≈ %v", y/a, wantRatio)
	}
}

func TestKStar(t *testing.T) {
	cases := []struct {
		in   int
		out  int64
		want int
	}{
		{100, 99, 1}, {100, 100, 1}, {100, 101, 2}, {100, 10000, 2}, {100, 10001, 3},
		{1, 5, 1}, {100, 0, 1},
	}
	for _, c := range cases {
		if got := KStar(c.in, c.out); got != c.want {
			t.Errorf("KStar(%d,%d) = %d, want %d", c.in, c.out, got, c.want)
		}
	}
}

func TestRHierOutputMatchesCorollary1Regime(t *testing.T) {
	// For IN < OUT ≤ IN², k* = 2 and the bound is IN/p + √(OUT/p).
	in, p := 10000, 16
	out := int64(1000000)
	got := Thm4.Eval(at(in, out, p))
	want := float64(in)/float64(p) + math.Sqrt(float64(out)/float64(p))
	if !approx(got, want, 0.01) {
		t.Errorf("Thm 4 = %v, want %v", got, want)
	}
}

func TestLine3LowerCrossover(t *testing.T) {
	// The √(IN·OUT/(p log IN)) branch holds until OUT ≈ p·IN·(log IN),
	// after which IN/√p takes over.
	in, p := 1<<16, 64
	small := Thm6.Eval(at(in, int64(in), p))
	big := Thm6.Eval(at(in, int64(in)*int64(p)*100, p))
	if small >= big {
		t.Errorf("lower bound should grow with OUT below the cap")
	}
	if wc := WorstCaseLine3.Eval(at(in, 0, p)); big != wc {
		t.Errorf("large OUT should hit the IN/√p cap: %v vs %v", big, wc)
	}
}

func TestTriangleLowerBranches(t *testing.T) {
	in, p := 1<<16, 64
	wc := Triangle.Eval(at(in, 0, p))
	// Small OUT: the linear branch is active.
	if lo := Thm11.Eval(at(in, int64(in), p)); lo >= wc {
		t.Errorf("small-OUT triangle bound should be below worst case")
	}
	// Huge OUT: capped by IN/p^{2/3}.
	if hi := Thm11.Eval(at(in, int64(in)*1000, p)); hi != wc {
		t.Errorf("large-OUT triangle bound should equal worst case")
	}
}

func TestCartesianLowerPaperExamples(t *testing.T) {
	// Section 1.3: N1=N2=√IN, N3=IN with OUT = IN²: bound (OUT/p)^{1/3};
	// N1=1, N2=N3=IN: bound (OUT/p)^{1/2} — the second is higher.
	p := 64
	in := 1 << 12
	s := int(math.Sqrt(float64(in)))
	flat := cartesianLower([]int{s, s, in}, p)
	skew := cartesianLower([]int{1, in, in}, p)
	if skew <= flat {
		t.Errorf("skewed product (%v) must have a higher bound than flat (%v)", skew, flat)
	}
	wantSkew := math.Sqrt(float64(in) * float64(in) / float64(p))
	if !approx(skew, wantSkew, 0.01) {
		t.Errorf("skew bound %v, want %v", skew, wantSkew)
	}
}

// TestPerServerOutputLower: without the relations, eq. 1's term falls back
// to per-server output counting over pairs, (OUT/p)^{1/2}.
func TestPerServerOutputLower(t *testing.T) {
	if got := Eq1.Eval(at(0, 1000000, 100)); !approx(got, 100, 0.01) {
		t.Errorf("eq. 1 proxy = %v, want 100", got)
	}
}

func TestRatio(t *testing.T) {
	if Ratio(100, 50) != 2 {
		t.Error("Ratio wrong")
	}
	if !math.IsInf(Ratio(5, 0), 1) {
		t.Error("Ratio by zero should be +Inf")
	}
	if !math.IsInf(Ratio(5, math.NaN()), 1) {
		t.Error("Ratio against a NaN bound should be +Inf, not NaN")
	}
}

// TestBoundsFiniteOnDegenerateInputs is the dispatcher's NaN-safety
// contract: every row evaluates to a finite non-negative value on every
// IN ≥ 0, OUT ≥ 0, so a degenerate instance (empty relations, single
// tuples) can never poison an argmin with NaN or ±Inf. IN=1 is the
// historical trap: log IN = 0 turned the lower-bound denominators into
// divisions by zero (±Inf, and NaN at OUT=0 via 0/0).
func TestBoundsFiniteOnDegenerateInputs(t *testing.T) {
	check := func(name string, in int, out int64, p int, got float64) {
		if math.IsNaN(got) || math.IsInf(got, 0) || got < 0 {
			t.Errorf("%s(IN=%d, OUT=%d, p=%d) = %v, want finite ≥ 0", name, in, out, p, got)
		}
	}
	for _, in := range []int{0, 1, 2, 3, 1000} {
		for _, out := range []int64{0, 1, 2, 1000000} {
			for _, p := range []int{1, 2, 64} {
				for id := range bounds {
					check(string(id), in, out, p, id.Eval(at(in, out, p)))
				}
				check("cartesianLower", in, out, p, cartesianLower([]int{in, in}, p))
			}
		}
	}
}

// TestLowerBoundsAtINOne pins the clamped edge cases: at IN ∈ {0,1} the
// log factor is 1, so the formulas evaluate without the ±Inf/NaN of a raw
// log IN denominator, and OUT=0 gives 0 exactly.
func TestLowerBoundsAtINOne(t *testing.T) {
	if got := Thm6.Eval(at(1, 0, 64)); got != 0 {
		t.Errorf("Thm 6 at (1, 0, 64) = %v, want 0", got)
	}
	if got := Thm6.Eval(at(0, 0, 64)); got != 0 {
		t.Errorf("Thm 6 at (0, 0, 64) = %v, want 0", got)
	}
	// IN=1, OUT=64: min{√(1·64/(64·1)), 1/8} = 1/8.
	if got := Thm6.Eval(at(1, 64, 64)); got != 0.125 {
		t.Errorf("Thm 6 at (1, 64, 64) = %v, want 0.125", got)
	}
	// Thm 11 at IN=1: min{1/p + OUT/p, 1/p^{2/3}} with log factor 1.
	if got, want := Thm11.Eval(at(1, 0, 64)), 1.0/64; got != want {
		t.Errorf("Thm 11 at (1, 0, 64) = %v, want %v", got, want)
	}
	if got, want := Thm11.Eval(at(0, 0, 64)), 0.0; got != want {
		t.Errorf("Thm 11 at (0, 0, 64) = %v, want %v", got, want)
	}
}

// TestCartesianLowerCap is the mask-overflow regression: past the cap the
// old `1 << n` subset mask would wrap (zero iterations at n=64 on 64-bit
// ints — a silent 0 for a bound that is never 0 on nonempty inputs) after
// an intractable 2ⁿ scan. The guard panics instead.
func TestCartesianLowerCap(t *testing.T) {
	at := make([]int, maxCartesianRelations)
	for i := range at {
		at[i] = 2
	}
	if got := cartesianLower(at, 1); got <= 0 {
		t.Errorf("cartesianLower at the cap = %v, want > 0", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("cartesianLower over %d relations should panic, not wrap the subset mask",
				maxCartesianRelations+1)
		}
	}()
	cartesianLower(make([]int, maxCartesianRelations+1), 64)
}

// TestRowsRender pins each row's printed formula: the text every table,
// label and CONTRACTS.md cell shows.
func TestRowsRender(t *testing.T) {
	want := map[BoundID]string{
		Linear:         "IN/p",
		Yannakakis:     "IN/p + OUT/p",
		BinaryJoin:     "IN/p + √(OUT/p)",
		Thm3:           "IN/p + L_instance(p,R)",
		OneRound:       "IN/p + L_instance(p,R)",
		Thm4:           "IN/p^(1/max(1, k* − 1)) + (OUT/p)^(1/k*)",
		Thm6:           "min(√(IN·OUT/(p·log IN)), IN/√p)",
		Thm7:           "IN/p + √(IN·OUT/p)",
		Thm9:           "IN/p + √(IN·OUT_y/p)",
		Thm11:          "min(IN/p + OUT/(p·log IN), IN/p^(2/3))",
		WorstCaseLine3: "IN/√p",
		Triangle:       "IN/p^(2/3)",
		Eq1:            "L_cartesian(p,R)",
		Cor4:           "IN/p",
		Oracle:         "IN",
	}
	if len(want) != len(bounds) {
		t.Errorf("%d renderings pinned for %d rows", len(want), len(bounds))
	}
	for id, r := range bounds {
		if got := id.Formula(); got != want[id] {
			t.Errorf("%s renders %q, want %q", string(id), got, want[id])
		}
		if rounds := r.Rounds; rounds != "zero" && rounds != "const" && rounds != "log" && rounds != "loop" {
			t.Errorf("%s has round class %q", string(id), rounds)
		}
		if r.Regime == "" {
			t.Errorf("%s states no regime", string(id))
		}
	}
	if got := Yannakakis.String(); got != "IN/p + OUT/p ([2,25])" {
		t.Errorf("cited rendering %q", got)
	}
	if _, ok := Lookup("Thm 99"); ok {
		t.Error("Lookup resolved an id the table does not have")
	}
}
