package stats

import (
	"math"
	"testing"
)

// TestPredictKnownAlgorithms pins the per-name predictors to the rows they
// claim to evaluate.
func TestPredictKnownAlgorithms(t *testing.T) {
	in, out, p := 1<<12, int64(1<<15), 64
	cases := []struct {
		algo string
		row  BoundID
	}{
		{"yannakakis", Yannakakis},
		{"acyclic", Thm7},
		{"line3", Thm7},
		{"line3wc", WorstCaseLine3},
		{"rhier", Thm4},
		{"binhc", Thm4},
		{"hypercube", Eq1},
		{"triangle", Triangle},
		{"naive", Oracle},
		{"count", Cor4},
		{"aggregate", Thm9},
	}
	for _, c := range cases {
		load, ok := Predict(c.algo, in, out, p)
		if id, _ := Priced(c.algo); !ok || id != c.row {
			t.Errorf("%q is priced by %q, want %q", c.algo, id, c.row)
			continue
		}
		if want := c.row.Eval(Vars{IN: in, OUT: out, P: p}); load != want {
			t.Errorf("Predict(%q) = %v, want %v", c.algo, load, want)
		}
	}
}

// TestPredictUnknownAlgorithm: names outside the catalog report false —
// what engine.Register's wiring check reads.
func TestPredictUnknownAlgorithm(t *testing.T) {
	if _, ok := Priced("no-such-algorithm"); ok {
		t.Error("Priced of an unknown name should report false")
	}
	if _, ok := Predict("no-such-algorithm", 10, 10, 4); ok {
		t.Error("Predict of an unknown name should report false")
	}
}

// TestPredictFiniteOnDegenerateInputs extends the NaN-safety contract to
// every per-name predictor.
func TestPredictFiniteOnDegenerateInputs(t *testing.T) {
	algos := []string{"yannakakis", "acyclic", "line3", "line3wc", "rhier", "binhc",
		"hypercube", "triangle", "naive", "count", "aggregate"}
	for _, in := range []int{0, 1, 2, 100} {
		for _, out := range []int64{0, 1, 1 << 40} {
			for _, p := range []int{1, 16} {
				for _, a := range algos {
					load, ok := Predict(a, in, out, p)
					if !ok {
						t.Fatalf("Predict(%q) missing", a)
					}
					if math.IsNaN(load) || math.IsInf(load, 0) || load < 0 {
						t.Errorf("Predict(%q, IN=%d, OUT=%d, p=%d) = %v, want finite ≥ 0",
							a, in, out, p, load)
					}
				}
			}
		}
	}
}
