package stats

import (
	"math"
	"testing"
)

// TestPredictKnownAlgorithms pins the per-name predictors to the bound
// functions they claim to evaluate.
func TestPredictKnownAlgorithms(t *testing.T) {
	in, out, p := 1<<12, int64(1<<15), 64
	cases := []struct {
		algo string
		want float64
	}{
		{"yannakakis", Yannakakis(in, out, p)},
		{"acyclic", Acyclic(in, out, p)},
		{"line3", Acyclic(in, out, p)},
		{"line3wc", WorstCaseLine(in, p)},
		{"rhier", RHierOutput(in, out, p)},
		{"binhc", RHierOutput(in, out, p)},
		{"hypercube", max2(Linear(in, p), PerServerOutputLower(out, p, 2))},
		{"triangle", TriangleWorstCase(in, p)},
		{"naive", float64(in)},
		{"count", Linear(in, p)},
		{"aggregate", Acyclic(in, out, p)},
	}
	for _, c := range cases {
		pr, ok := Predict(c.algo, in, out, p)
		if !ok {
			t.Errorf("Predict(%q) has no formula", c.algo)
			continue
		}
		if pr.Load != c.want {
			t.Errorf("Predict(%q) = %v, want %v", c.algo, pr.Load, c.want)
		}
		if pr.Formula == "" {
			t.Errorf("Predict(%q) has an empty formula name", c.algo)
		}
	}
}

// TestPredictUnknownAlgorithm: names outside the catalog report false —
// what engine.Register's wiring check reads.
func TestPredictUnknownAlgorithm(t *testing.T) {
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
					pr, ok := Predict(a, in, out, p)
					if !ok {
						t.Fatalf("Predict(%q) missing", a)
					}
					if math.IsNaN(pr.Load) || math.IsInf(pr.Load, 0) || pr.Load < 0 {
						t.Errorf("Predict(%q, IN=%d, OUT=%d, p=%d) = %v, want finite ≥ 0",
							a, in, out, p, pr.Load)
					}
				}
			}
		}
	}
}
