package stats

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/relation"
)

// The hand-written bound functions and per-name predictors the table
// replaced, kept with their bodies as they were (renamed ref*) as the
// reference every row is checked against bit for bit: a reordered float
// operation in a row would move a prediction, and with it a dispatch tie.

func refLinear(in, p int) float64 { return float64(in) / float64(p) }

func refYannakakis(in int, out int64, p int) float64 {
	return refLinear(in, p) + float64(out)/float64(p)
}

func refBinaryJoinBound(in int, out int64, p int) float64 {
	return refLinear(in, p) + math.Sqrt(float64(out)/float64(p))
}

func refAcyclic(in int, out int64, p int) float64 {
	return refLinear(in, p) + math.Sqrt(float64(in)*float64(out)/float64(p))
}

func refRHierOutput(in int, out int64, p int) float64 {
	k := refKStar(in, out)
	d := k - 1
	if d < 1 {
		d = 1
	}
	return float64(in)/math.Pow(float64(p), 1/float64(d)) +
		math.Pow(float64(out)/float64(p), 1/float64(k))
}

func refKStar(in int, out int64) int {
	if in <= 1 || out <= 1 {
		return 1
	}
	k := int(math.Ceil(math.Log(float64(out)) / math.Log(float64(in))))
	if k < 1 {
		k = 1
	}
	return k
}

func refLogClamped(in int) float64 {
	if in <= 2 {
		return 1
	}
	return math.Log(float64(in))
}

func refLine3Lower(in int, out int64, p int) float64 {
	a := math.Sqrt(float64(in) * float64(out) / (float64(p) * refLogClamped(in)))
	b := float64(in) / math.Sqrt(float64(p))
	return math.Min(a, b)
}

func refWorstCaseLine(in, p int) float64 {
	return float64(in) / math.Sqrt(float64(p))
}

func refTriangleLower(in int, out int64, p int) float64 {
	a := refLinear(in, p) + float64(out)/(float64(p)*refLogClamped(in))
	b := float64(in) / math.Pow(float64(p), 2.0/3.0)
	return math.Min(a, b)
}

func refTriangleWorstCase(in, p int) float64 {
	return float64(in) / math.Pow(float64(p), 2.0/3.0)
}

func refCartesianLower(sizes []int, p int) float64 {
	best := 0.0
	n := len(sizes)
	if n > maxCartesianRelations {
		panic(fmt.Sprintf("stats: CartesianLower over %d relations (cap %d: the subset maximization is O(2^n) and its mask wraps at n=63)",
			n, maxCartesianRelations))
	}
	for mask := 1; mask < 1<<n; mask++ {
		prod, cnt := 1.0, 0
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				prod *= float64(sizes[i])
				cnt++
			}
		}
		v := math.Pow(prod/float64(p), 1/float64(cnt))
		if v > best {
			best = v
		}
	}
	return best
}

func refPerServerOutputLower(out int64, p, m int) float64 {
	return math.Pow(float64(out)/float64(p), 1/float64(m))
}

func refMax2(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// refInstBound is the harness's Table 1 instance bound IN/p + L_instance.
func refInstBound(in, p int, li int64) float64 {
	return float64(in)/float64(p) + float64(li)
}

// refPredictors is the name → closure table Predict used to scan.
var refPredictors = []struct {
	algo string
	eval func(in int, out int64, p int) float64
}{
	{"yannakakis", refYannakakis},
	{"acyclic", refAcyclic},
	{"line3", refAcyclic},
	{"line3wc", func(in int, _ int64, p int) float64 { return refWorstCaseLine(in, p) }},
	{"rhier", refRHierOutput},
	{"binhc", refRHierOutput},
	{"hypercube", func(in int, out int64, p int) float64 {
		return refMax2(refLinear(in, p), refPerServerOutputLower(out, p, 2))
	}},
	{"triangle", func(in int, _ int64, p int) float64 { return refTriangleWorstCase(in, p) }},
	{"naive", func(in int, _ int64, _ int) float64 { return float64(in) }},
	{"count", func(in int, _ int64, p int) float64 { return refLinear(in, p) }},
	{"aggregate", refAcyclic},
}

// refGrid calls f at every (IN, OUT, p) of the reference grid.
func refGrid(f func(in int, out int64, p int)) {
	for _, in := range []int{0, 1, 2, 3, 512, 32768} {
		for _, p := range []int{1, 2, 16, 64} {
			for _, out := range []int64{0, 1, int64(in), int64(p) * int64(in), 1 << 62} {
				f(in, out, p)
			}
		}
	}
}

// TestRowsMatchReference checks every row's Eval against the function it
// replaced with ==, over the reference grid.
func TestRowsMatchReference(t *testing.T) {
	const li = 777
	ref := map[BoundID]func(in int, out int64, p int) float64{
		Linear:         func(in int, _ int64, p int) float64 { return refLinear(in, p) },
		Yannakakis:     refYannakakis,
		BinaryJoin:     refBinaryJoinBound,
		Thm3:           func(in int, _ int64, p int) float64 { return refInstBound(in, p, li) },
		OneRound:       func(in int, _ int64, p int) float64 { return refInstBound(in, p, li) },
		Thm4:           refRHierOutput,
		Thm6:           refLine3Lower,
		Thm7:           refAcyclic,
		Thm9:           refAcyclic,
		Thm11:          refTriangleLower,
		WorstCaseLine3: func(in int, _ int64, p int) float64 { return refWorstCaseLine(in, p) },
		Triangle:       func(in int, _ int64, p int) float64 { return refTriangleWorstCase(in, p) },
		Eq1: func(in int, out int64, p int) float64 {
			return refMax2(refLinear(in, p), refPerServerOutputLower(out, p, 2))
		},
		Cor4:   func(in int, _ int64, p int) float64 { return refLinear(in, p) },
		Oracle: func(in int, _ int64, _ int) float64 { return float64(in) },
	}
	if len(ref) != len(bounds) {
		t.Fatalf("%d reference functions for %d rows", len(ref), len(bounds))
	}
	for id := range bounds {
		f, ok := ref[id]
		if !ok {
			t.Fatalf("row %q has no reference function", string(id))
		}
		refGrid(func(in int, out int64, p int) {
			got, want := id.Eval(Vars{IN: in, OUT: out, P: p, LInstance: li}), f(in, out, p)
			if got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
				t.Errorf("%s at IN=%d OUT=%d p=%d: %v, reference %v", string(id), in, out, p, got, want)
			}
		})
	}
}

// TestPredictMatchesReference checks Predict for every catalog name against
// the closure it replaced, over the reference grid, and pins today's exact
// dispatch ties.
func TestPredictMatchesReference(t *testing.T) {
	if len(refPredictors) != len(priced) {
		t.Fatalf("%d reference predictors for %d priced names", len(refPredictors), len(priced))
	}
	for _, rp := range refPredictors {
		refGrid(func(in int, out int64, p int) {
			load, ok := Predict(rp.algo, in, out, p)
			if want := rp.eval(in, out, p); !ok || load != want {
				t.Errorf("Predict(%q, IN=%d, OUT=%d, p=%d) = %v, %v; reference %v", rp.algo, in, out, p, load, ok, want)
			}
		})
	}
	// rhier_skew's instance (IN 100 356, OUT 33 792, p 64, k* = 1): the
	// r-hierarchical bound collapses to Yannakakis' exactly, and the
	// catalog order breaks the tie.
	r, _ := Predict("rhier", 100356, 33792, 64)
	y, _ := Predict("yannakakis", 100356, 33792, 64)
	if r != 2096.0625 || y != 2096.0625 {
		t.Errorf("rhier %v, yannakakis %v on rhier_skew, want both 2096.0625", r, y)
	}
	for _, pair := range [][2]string{{"line3", "acyclic"}, {"aggregate", "acyclic"}, {"binhc", "rhier"}} {
		refGrid(func(in int, out int64, p int) {
			a, _ := Predict(pair[0], in, out, p)
			b, _ := Predict(pair[1], in, out, p)
			if a != b {
				t.Errorf("%s %v != %s %v at IN=%d OUT=%d p=%d", pair[0], a, pair[1], b, in, out, p)
			}
		})
	}
}

// TestCartesianTermMatchesReference: with the relations in hand, eq. 1's
// term is the subset maximization the engine used to refine with.
func TestCartesianTermMatchesReference(t *testing.T) {
	for _, sizes := range [][]int{{1}, {3, 5}, {8, 8, 64}, {1, 64, 64}, {0, 7}, {2, 3, 5, 7, 11}} {
		rels := make([]*relation.Relation, len(sizes))
		for i, n := range sizes {
			rels[i] = relation.New(fmt.Sprintf("R%d", i), relation.NewSchema(relation.Attr(i)))
			for v := 0; v < n; v++ {
				rels[i].Add(relation.Value(v))
			}
		}
		for _, p := range []int{1, 2, 16, 64} {
			got := Eq1.Eval(Vars{IN: 1, OUT: 1, P: p, Rels: rels})
			if want := refCartesianLower(sizes, p); got != want {
				t.Errorf("eq. 1 over %v at p=%d: %v, reference %v", sizes, p, got, want)
			}
		}
	}
}
