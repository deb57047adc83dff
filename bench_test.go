// Package repro's root benchmark suite regenerates every table and figure
// of the paper (see DESIGN.md's per-experiment index). Each benchmark runs
// the corresponding experiment on the MPC simulator and reports the
// measured load as custom metrics (load = max tuples received by a server
// in a round; rounds = communication rounds), alongside the usual ns/op.
//
//	go test -bench=. -benchmem
//	go test -bench=. -workers=1   # serial reference execution
package repro

import (
	"flag"
	"fmt"
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/harness"
	"repro/internal/hypergraph"
	"repro/internal/mpc"
	"repro/internal/primitives"
	"repro/internal/runtime"
)

// workersFlag is the width handed to runtime.SetParallelism: it bounds
// every runtime.Fork — the harness's experiment cells and the loops inside
// each cell (batched exchange, parallel sub-clusters, oracle probes).
// Tables and metrics are identical for any value; 1 runs everything
// serially.
var workersFlag = flag.Int("workers", 0,
	"simulator parallelism (0 = GOMAXPROCS, 1 = serial)")

func TestMain(m *testing.M) {
	flag.Parse()
	runtime.SetParallelism(*workersFlag)
	os.Exit(m.Run())
}

// benchScale keeps per-iteration work moderate; the experiments command
// runs the full DefaultScale.
func benchScale() harness.Scale {
	return harness.Scale{P: 16, IN: 1 << 11, Seed: 2019}
}

// measure runs one algorithm per iteration and reports load/round metrics.
func measure(b *testing.B, in *core.Instance, p int,
	algo func(c *mpc.Cluster) *mpc.Dist) {
	b.Helper()
	var load, rounds, out int
	for i := 0; i < b.N; i++ {
		c := mpc.NewCluster(p)
		out = algo(c).Size()
		load, rounds = c.MaxLoad(), c.Rounds()
	}
	b.ReportMetric(float64(load), "load")
	b.ReportMetric(float64(rounds), "rounds")
	b.ReportMetric(float64(out), "OUT")
}

// --- Figure 1: classification ---------------------------------------------

func BenchmarkFig1_Classify(b *testing.B) {
	cat := hypergraph.Catalog()
	for i := 0; i < b.N; i++ {
		for _, e := range cat {
			_ = e.Q.Classify()
		}
	}
}

// --- Engine: classification-driven dispatch over the whole catalog ----------

// BenchmarkEngine_Dispatch measures routing alone: classify + registry walk
// for every catalog query, no data touched.
func BenchmarkEngine_Dispatch(b *testing.B) {
	cat := hypergraph.Catalog()
	for i := 0; i < b.N; i++ {
		for _, e := range cat {
			if _, err := engine.Auto(e.Q); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkEngine_AutoCost measures cost-based dispatch, no data-plane
// execution. "dispatch" is AutoCost end-to-end per catalog query —
// classification plus the cost model; classification is the dominant term
// and is the same work structural Auto does (BenchmarkEngine_Dispatch).
// "costmodel" isolates what cost-based dispatch adds on top: the
// statistics-only OUT estimate plus a predicted load for every registered
// algorithm, which must stay sub-microsecond per query.
func BenchmarkEngine_AutoCost(b *testing.B) {
	cat := hypergraph.Catalog()
	ins := make([]*core.Instance, len(cat))
	for i, e := range cat {
		ins[i] = gen.ForQuery(mpc.NewChildRng(2019, i), e.Q, 256, 12)
	}
	b.Run("dispatch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j := range cat {
				if _, _, err := engine.AutoCost(ins[j], 16, -1); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(cat)), "ns/dispatch")
	})
	b.Run("costmodel", func(b *testing.B) {
		// Mirror candidates(): only runnable candidates are priced. The
		// shape checks themselves are classification work structural Auto
		// already pays, so they sit outside the timed loop.
		runnable := make([][]engine.Algorithm, len(cat))
		for j, e := range cat {
			for _, a := range engine.All() {
				if a.Applies(e.Q) {
					runnable[j] = append(runnable[j], a)
				}
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := range cat {
				outEst := engine.EstimateOut(ins[j])
				for _, a := range runnable[j] {
					engine.PredictLoad(a, ins[j], outEst, 16)
				}
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(cat)), "ns/query")
	})
}

// BenchmarkEngine_Auto runs every catalog query end-to-end through the
// engine on a uniform instance: dispatch, execution on the simulator, and
// the measured load/rounds/OUT as metrics. One sub-benchmark per catalog
// entry, named by class and the algorithm Auto selects.
func BenchmarkEngine_Auto(b *testing.B) {
	s := benchScale()
	for i, e := range hypergraph.Catalog() {
		rng := mpc.NewChildRng(s.Seed, i)
		in := gen.ForQuery(rng, e.Q, 256, 12)
		a, err := engine.Auto(e.Q)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("%02d_%s/%s", i, e.Class, a.Name()), func(b *testing.B) {
			var res engine.Result
			for j := 0; j < b.N; j++ {
				res, err = engine.Run(a, engine.Job{In: in, P: s.P, Seed: s.Seed})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.Load), "load")
			b.ReportMetric(float64(res.Rounds), "rounds")
			b.ReportMetric(float64(res.OUT), "OUT")
		})
	}
}

// --- Figure 2: attribute forests -------------------------------------------

func BenchmarkFig2_AttributeForest(b *testing.B) {
	q1, q2 := hypergraph.Q1TallFlat(), hypergraph.Q2Hierarchical()
	for i := 0; i < b.N; i++ {
		_ = q1.AttributeForest()
		_ = q2.AttributeForest()
	}
}

// --- Figure 3: join order on the hard instance -----------------------------

func BenchmarkFig3_JoinOrder(b *testing.B) {
	s := benchScale()
	for _, doubled := range []bool{false, true} {
		var in *core.Instance
		name := "onesided"
		if doubled {
			in = gen.YannakakisHardDoubled(s.IN, 8*s.IN)
			name = "doubled"
		} else {
			in = gen.YannakakisHard(s.IN, 8*s.IN)
		}
		b.Run(name+"/yannakakis_fwd", func(b *testing.B) {
			measure(b, in, s.P, func(c *mpc.Cluster) *mpc.Dist {
				return core.Yannakakis(c, in, []int{0, 1, 2}, s.Seed)
			})
		})
		b.Run(name+"/yannakakis_bwd", func(b *testing.B) {
			measure(b, in, s.P, func(c *mpc.Cluster) *mpc.Dist {
				return core.Yannakakis(c, in, []int{2, 1, 0}, s.Seed)
			})
		})
		b.Run(name+"/line3", func(b *testing.B) {
			measure(b, in, s.P, func(c *mpc.Cluster) *mpc.Dist {
				return core.Line3WithTau(c, in, 0, s.Seed)
			})
		})
		b.Run(name+"/acyclic", func(b *testing.B) {
			measure(b, in, s.P, func(c *mpc.Cluster) *mpc.Dist {
				return core.AcyclicJoin(c, in, s.Seed)
			})
		})
	}
}

// --- Figure 4: line-3 OUT sweep on the random hard instance ----------------

func BenchmarkFig4_Line3Sweep(b *testing.B) {
	s := benchScale()
	rng := mpc.NewRng(s.Seed)
	for _, f := range []int{1, 4, 16, 64} {
		in := gen.Line3Random(rng, s.IN, s.IN*f)
		b.Run(fmt.Sprintf("outfactor=%d/line3", f), func(b *testing.B) {
			measure(b, in, s.P, func(c *mpc.Cluster) *mpc.Dist {
				return core.Line3WithTau(c, in, 0, s.Seed)
			})
		})
		b.Run(fmt.Sprintf("outfactor=%d/yannakakis", f), func(b *testing.B) {
			measure(b, in, s.P, func(c *mpc.Cluster) *mpc.Dist {
				return core.Yannakakis(c, in, nil, s.Seed)
			})
		})
	}
}

// --- Figure 5: join tree construction ---------------------------------------

func BenchmarkFig5_JoinTree(b *testing.B) {
	q := hypergraph.Fig5Example()
	for i := 0; i < b.N; i++ {
		if _, ok := q.GYO(); !ok {
			b.Fatal("Fig5 query must be acyclic")
		}
	}
}

// --- Figure 6 / Theorem 11: triangle sweep ----------------------------------

func BenchmarkFig6_TriangleSweep(b *testing.B) {
	s := benchScale()
	rng := mpc.NewRng(s.Seed)
	for _, f := range []int{1, 4, 16} {
		in := gen.TriangleRandom(rng, s.IN, s.IN*f)
		b.Run(fmt.Sprintf("outfactor=%d", f), func(b *testing.B) {
			measure(b, in, 27, func(c *mpc.Cluster) *mpc.Dist {
				return core.Triangle(c, in, s.Seed)
			})
		})
	}
}

// --- Table 1: one row per join class ----------------------------------------

func BenchmarkTable1_TallFlat(b *testing.B) {
	s := benchScale()
	in := gen.TallFlatSkewed(96, s.IN/2)
	b.Run("binhc", func(b *testing.B) {
		measure(b, in, s.P, func(c *mpc.Cluster) *mpc.Dist {
			return core.BinHC(c, in, s.Seed, false)
		})
	})
	b.Run("rhier", func(b *testing.B) {
		measure(b, in, s.P, func(c *mpc.Cluster) *mpc.Dist {
			return core.RHier(c, in, s.Seed)
		})
	})
}

func BenchmarkTable1_RHierarchical(b *testing.B) {
	s := benchScale()
	rng := mpc.NewRng(s.Seed)
	in := gen.RHierSkewed(rng, 4, 64, s.IN/2)
	b.Run("binhc", func(b *testing.B) {
		measure(b, in, s.P, func(c *mpc.Cluster) *mpc.Dist {
			return core.BinHC(c, in, s.Seed, false)
		})
	})
	b.Run("rhier", func(b *testing.B) {
		measure(b, in, s.P, func(c *mpc.Cluster) *mpc.Dist {
			return core.RHier(c, in, s.Seed)
		})
	})
	b.Run("yannakakis", func(b *testing.B) {
		measure(b, in, s.P, func(c *mpc.Cluster) *mpc.Dist {
			return core.Yannakakis(c, in, nil, s.Seed)
		})
	})
}

func BenchmarkTable1_RHierDangling(b *testing.B) {
	s := benchScale()
	rng := mpc.NewRng(s.Seed)
	in := gen.WithDangling(gen.RHierSkewed(rng, 4, 64, s.IN/2), 1, s.IN)
	b.Run("binhc_oneround", func(b *testing.B) {
		measure(b, in, s.P, func(c *mpc.Cluster) *mpc.Dist {
			return core.BinHC(c, in, s.Seed, false)
		})
	})
	b.Run("reduce_binhc", func(b *testing.B) {
		measure(b, in, s.P, func(c *mpc.Cluster) *mpc.Dist {
			return core.BinHC(c, in, s.Seed, true)
		})
	})
	b.Run("rhier", func(b *testing.B) {
		measure(b, in, s.P, func(c *mpc.Cluster) *mpc.Dist {
			return core.RHier(c, in, s.Seed)
		})
	})
}

func BenchmarkTable1_Acyclic(b *testing.B) {
	s := benchScale()
	rng := mpc.NewRng(s.Seed)
	in := gen.Line3Random(rng, s.IN, 8*s.IN)
	b.Run("yannakakis", func(b *testing.B) {
		measure(b, in, s.P, func(c *mpc.Cluster) *mpc.Dist {
			return core.Yannakakis(c, in, nil, s.Seed)
		})
	})
	b.Run("line3", func(b *testing.B) {
		measure(b, in, s.P, func(c *mpc.Cluster) *mpc.Dist {
			return core.Line3WithTau(c, in, 0, s.Seed)
		})
	})
	b.Run("acyclic", func(b *testing.B) {
		measure(b, in, s.P, func(c *mpc.Cluster) *mpc.Dist {
			return core.AcyclicJoin(c, in, s.Seed)
		})
	})
}

func BenchmarkTable1_Triangle(b *testing.B) {
	s := benchScale()
	rng := mpc.NewRng(s.Seed)
	in := gen.TriangleRandom(rng, s.IN, 4*s.IN)
	measure(b, in, 27, func(c *mpc.Cluster) *mpc.Dist {
		return core.Triangle(c, in, s.Seed)
	})
}

// --- E2: Theorem 4 closed form ----------------------------------------------

func BenchmarkE2_RHierClosedForm(b *testing.B) {
	s := benchScale()
	for _, hub := range []int{16, 64, 256} {
		rng := mpc.NewRng(s.Seed)
		in := gen.RHierSkewed(rng, 2, hub, s.IN/4)
		b.Run(fmt.Sprintf("hub=%d", hub), func(b *testing.B) {
			measure(b, in, s.P, func(c *mpc.Cluster) *mpc.Dist {
				return core.RHier(c, in, s.Seed)
			})
		})
	}
}

// --- E3: acyclic vs Yannakakis beyond line-3 --------------------------------

func BenchmarkE3_AcyclicVsYannakakis(b *testing.B) {
	s := benchScale()
	rng := mpc.NewRng(s.Seed)
	in := gen.LineKUniform(rng, 4, s.IN/4, 48)
	b.Run("yannakakis", func(b *testing.B) {
		measure(b, in, s.P, func(c *mpc.Cluster) *mpc.Dist {
			return core.Yannakakis(c, in, nil, s.Seed)
		})
	})
	b.Run("acyclic", func(b *testing.B) {
		measure(b, in, s.P, func(c *mpc.Cluster) *mpc.Dist {
			return core.AcyclicJoin(c, in, s.Seed)
		})
	})
}

// --- E4: join-aggregate ------------------------------------------------------

func BenchmarkE4_Aggregate(b *testing.B) {
	s := benchScale()
	rng := mpc.NewRng(s.Seed)
	in := gen.Line3Random(rng, s.IN, 32*s.IN)
	y := hypergraph.NewAttrSet(2, 3)
	var load int
	for i := 0; i < b.N; i++ {
		c := mpc.NewCluster(s.P)
		core.Aggregate(c, in, y, s.Seed)
		load = c.MaxLoad()
	}
	b.ReportMetric(float64(load), "load")
}

func BenchmarkE4_CountOutput(b *testing.B) {
	s := benchScale()
	rng := mpc.NewRng(s.Seed)
	in := gen.Line3Random(rng, s.IN, 32*s.IN)
	var load int
	for i := 0; i < b.N; i++ {
		c := mpc.NewCluster(s.P)
		core.CountOutput(c, in, s.Seed)
		load = c.MaxLoad()
	}
	b.ReportMetric(float64(load), "load")
}

// --- E5: instance-optimality gap (Corollary 2/3) -----------------------------

func BenchmarkE5_InstanceOptimalityGap(b *testing.B) {
	s := benchScale()
	rng := mpc.NewRng(s.Seed)
	in := gen.Line3Random(rng, s.IN, s.P*s.IN)
	measure(b, in, s.P, func(c *mpc.Cluster) *mpc.Dist {
		return core.Line3WithTau(c, in, 0, s.Seed)
	})
}

// --- Ablations ----------------------------------------------------------------

func BenchmarkAblation_Tau(b *testing.B) {
	s := benchScale()
	rng := mpc.NewRng(s.Seed)
	in := gen.Line3Random(rng, s.IN, 16*s.IN)
	for _, tau := range []int64{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("tau=%d", tau), func(b *testing.B) {
			measure(b, in, s.P, func(c *mpc.Cluster) *mpc.Dist {
				return core.Line3WithTau(c, in, tau, s.Seed)
			})
		})
	}
}

// --- Harness: whole experiment matrices, cells forked ------------------------

func BenchmarkHarness_Fig3Matrix(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		_ = harness.Fig3JoinOrder(s)
	}
}

func BenchmarkHarness_Fig4Matrix(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		_ = harness.Fig4Line3Sweep(s)
	}
}

// --- Microbenchmarks of the substrate ----------------------------------------

func BenchmarkMicro_BinaryJoin(b *testing.B) {
	s := benchScale()
	rng := mpc.NewRng(s.Seed)
	in := gen.LineKUniform(rng, 2, s.IN, 64)
	for i := 0; i < b.N; i++ {
		c := mpc.NewCluster(s.P)
		dists := core.LoadInstance(c, in)
		core.BinaryJoin(dists[0], dists[1], in.Ring, s.Seed, nil)
	}
}

func BenchmarkMicro_FullReduce(b *testing.B) {
	s := benchScale()
	rng := mpc.NewRng(s.Seed)
	in := gen.LineKUniform(rng, 4, s.IN/4, 48)
	for i := 0; i < b.N; i++ {
		c := mpc.NewCluster(s.P)
		dists := core.LoadInstance(c, in)
		core.FullReduce(in, dists)
	}
}

// BenchmarkMicro_SemiJoin drives the semi-join end-to-end from the top
// layer: one multi-search (internal/primitives/lookup.go) over a serial
// radix rank sort of both sides' records. d is staged whole; its
// duplicates are dropped after the rank sort, in one pass over the sorted
// order that keeps each (server, key)'s first record (recCols.openers),
// before the chunks are cut. The sort is counted on its own in
// internal/primitives (BenchmarkSampleSort vs BenchmarkSerialSortRef), the
// combiner's worst case there too (BenchmarkSemiJoin_Duplicates).
func BenchmarkMicro_SemiJoin(b *testing.B) {
	s := benchScale()
	rng := mpc.NewRng(s.Seed)
	in := gen.LineKUniform(rng, 2, s.IN, 64)
	shared := in.Rels[0].Schema.Intersect(in.Rels[1].Schema)
	for i := 0; i < b.N; i++ {
		c := mpc.NewCluster(s.P)
		dists := core.LoadInstance(c, in)
		primitives.SemiJoin(dists[0], shared, dists[1], shared)
	}
}
