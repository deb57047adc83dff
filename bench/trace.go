package main

import (
	"encoding/json"
	"math"
	"os"
	stdruntime "runtime"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/mpc"
	"repro/internal/primitives"
	"repro/internal/relation"
	"repro/internal/runtime"
	"repro/internal/stats"
)

// counts are the work counts recorded at a span's boundary.
type counts map[string]float64

// span is one timed call into a layer, recorded from the benchmark's own
// files. Parent 0 means a root span.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Pass     int    `json:"pass"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
	Counts   counts `json:"counts,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the timed run shares the traced run's code with tracing off.
type tracer struct {
	workload string
	pass     int
	t0       time.Time
	spans    []span
	open     []int // ids of the spans in progress, innermost last
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now()}
}

// do runs f inside a span named name, a child of the innermost open span.
func (t *tracer) do(name string, f func() counts) {
	if t == nil {
		f()
		return
	}
	id := len(t.spans) + 1
	parent := 0
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Workload: t.workload, Pass: t.pass})
	t.open = append(t.open, id)
	start := time.Since(t.t0)
	c := f()
	end := time.Since(t.t0)
	t.open = t.open[:len(t.open)-1]
	sp := &t.spans[id-1]
	sp.StartNs, sp.EndNs, sp.Counts = start.Nanoseconds(), end.Nanoseconds(), c
}

// annotate adds a count to the span that closed last: a count read after
// the span ended, so that reading it is not timed.
func (t *tracer) annotate(key string, n float64) {
	if t == nil || len(t.spans) == 0 {
		return
	}
	sp := &t.spans[len(t.spans)-1]
	if sp.Counts == nil {
		sp.Counts = counts{}
	}
	sp.Counts[key] = n
}

func mallocCount() uint64 {
	var ms stdruntime.MemStats
	stdruntime.ReadMemStats(&ms)
	return ms.Mallocs
}

func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// numberAttr is the column MultiNumbering appends in the probe; negative
// ids cannot collide with query attributes.
const numberAttr relation.Attr = -900

// replay calls each layer's public functions on the workload's own
// instances, cluster size and seeds, one span per call, so a pass's time
// can be read against what its parts cost in isolation. Probes that are
// undefined for an instance — FullReduce and BinaryJoin on a cyclic
// query, the keyed primitives on a Cartesian product — are skipped and
// read as 0.
func (pw *prepared) replay(tr *tracer) {
	for i, in := range pw.insts {
		job := pw.job(i)
		p := pw.p

		tr.do("engine.dispatch", func() counts {
			_, _, _ = engine.AutoCost(in, p, pw.wants[i])
			return nil
		})
		tr.do("engine.estimate_out", func() counts {
			engine.EstimateOut(in)
			return nil
		})
		tr.do("hypergraph.classify", func() counts {
			in.Q.Classify()
			return nil
		})
		tr.do("stats.predict", func() counts {
			for _, name := range engine.Names() {
				stats.Predict(name, in.IN(), pw.wants[i], p)
			}
			return nil
		})

		big := 0
		for r := range in.Rels {
			if in.Rels[r].Size() > in.Rels[big].Size() {
				big = r
			}
		}
		bigRel := in.Rels[big]
		// The neighbour is the first other relation sharing an attribute
		// with the largest one; key is what they share.
		nb, key := -1, relation.Schema(nil)
		for r := range in.Rels {
			if shared := bigRel.Schema.Intersect(in.Rels[r].Schema); r != big && len(shared) > 0 {
				nb, key = r, shared
				break
			}
		}

		c := mpc.NewCluster(p)
		tr.do("mpc.from_relation", func() counts {
			return counts{"tuples": float64(mpc.FromRelation(c, bigRel).Size())}
		})
		var dists []*mpc.Dist
		tr.do("core.load_instance", func() counts {
			dists = core.LoadInstance(c, in)
			return nil
		})
		if in.Q.IsAcyclic() && len(in.Rels) >= 2 {
			var reduced []*mpc.Dist
			tr.do("core.full_reduce", func() counts {
				reduced = core.FullReduce(in, dists)
				return nil
			})
			order := core.DefaultJoinOrder(in.Q)
			var joined *mpc.Dist
			tr.do("core.binary_join", func() counts {
				em := mpc.NewCountEmitter(in.Ring)
				joined = core.BinaryJoin(reduced[order[0]], reduced[order[1]], in.Ring, job.Seed, em)
				return counts{"out": float64(em.N)}
			})
			tr.do("core.emit_dist", func() counts {
				core.EmitDist(joined, joined.Schema, mpc.NewCountEmitter(in.Ring))
				return nil
			})
		}
		x := dists[big]
		if nb >= 0 {
			tr.do("mpc.shuffle", func() counts {
				return counts{"tuples": float64(x.ShuffleByAttrs(key, job.Seed).Size())}
			})
			tr.do("primitives.semijoin", func() counts {
				primitives.SemiJoin(x, key, dists[nb], key)
				return nil
			})
			var degrees *mpc.Dist
			tr.do("primitives.sum_by_key", func() counts {
				degrees = primitives.CountByKey(x, key, job.Seed)
				return nil
			})
			tr.do("primitives.lookup", func() counts {
				primitives.AttachAnnot(x, key, degrees, key, in.Ring, false)
				return nil
			})
			tr.do("primitives.multi_numbering", func() counts {
				primitives.MultiNumbering(x, key, numberAttr)
				return nil
			})
			tr.do("primitives.distinct_by_key", func() counts {
				primitives.DistinctByKey(x, key)
				return counts{"tuples_in": float64(x.Size())}
			})
		}

		// One row of the ⌈√p⌉ × ⌈√p⌉ grid: every tuple goes to the g
		// servers of the row its hash picks, as HyperCube-style plans do.
		g := int(math.Ceil(math.Sqrt(float64(p))))
		rows := p / g
		mallocs := mallocCount()
		tr.do("mpc.replicate", func() counts {
			pos := []int{0}
			out := x.ReplicateBy(func(it mpc.Item) []int {
				row := int(mpc.HashTupleAt(it.T, pos, job.Seed) % uint64(rows))
				dests := make([]int, g)
				for k := range dests {
					dests[k] = row*g + k
				}
				return dests
			})
			return counts{"tuples": float64(out.Size())}
		})
		tr.annotate("allocs", float64(mallocCount()-mallocs))

		// The emit path on its own: as many emissions as the real job made
		// (one for "count"), spread over the servers.
		emissions := int(pw.wants[i])
		if pw.algo == "count" {
			emissions = 1
		}
		schema := in.OutputSchema()
		row := make(relation.Tuple, len(schema))
		tr.do("mpc.emit_sharded", func() counts {
			em := mpc.NewShardedEmitter(schema, p)
			for k := 0; k < emissions; k++ {
				em.Emit(k%p, row, 1)
			}
			return counts{"tuples": float64(em.Rel().Size())}
		})
		tr.do("mpc.emit_count", func() counts {
			em := mpc.NewCountEmitter(in.Ring)
			for k := 0; k < emissions; k++ {
				em.Emit(k%p, row, 1)
			}
			return counts{"tuples": float64(em.N)}
		})

		tr.do("relation.key_at", func() counts {
			pos := bigRel.Schema.Positions(bigRel.Schema)
			n := 0
			for _, t := range bigRel.Tuples {
				n += len(relation.KeyAt(t, pos))
			}
			return counts{"tuples": float64(bigRel.Size()), "bytes": float64(n)}
		})
		tr.do("runtime.fork", func() counts {
			runtime.Fork(p, func(int) {})
			return nil
		})

		// The algorithm the real job ran, through its registry adapter —
		// a one-line closure over the core function — on a fresh cluster
		// with a counting emitter: the job minus everything engine.Run
		// adds. Run at the benchmark's width and again at width 1.
		algo := pw.algo
		if algo == "" {
			if a, _, err := engine.AutoCost(in, p, pw.wants[i]); err == nil {
				algo = a.Name()
			}
		}
		if a, ok := engine.Lookup(algo); ok {
			direct := func() counts {
				dj := job
				dj.Materialize = false
				dj.Cluster = mpc.NewCluster(p)
				dj.Emitter = mpc.NewCountEmitter(in.Ring)
				_, _ = a.Run(dj)
				return nil
			}
			tr.do("core.algo", direct)
			width := runtime.SetParallelism(1)
			tr.do("core.algo_w1", direct)
			runtime.SetParallelism(width)
		}
	}
}

// layerMetric derives one per-layer metric from a traced run.
type layerMetric struct {
	name, unit string
	// value reads the metric from the per-pass sums of span durations (ns)
	// and counts; see layerView.
	value func(v layerView) float64
}

// layerView is what the per-layer metrics are computed from.
type layerView struct {
	durs     map[string][]float64 // span name → per-pass summed duration, ns
	counts   map[string][]float64 // "span.count" → per-pass summed count
	untraced []float64            // ms of the untraced pass run just before each traced one
	regret   float64
}

// dur is the median per-pass duration of the named span in the unit's scale.
func (v layerView) dur(name string, perUnit float64) float64 {
	return median(v.durs[name]) / perUnit
}

func (v layerView) count(key string) float64 { return median(v.counts[key]) }

func durMetric(name, unit, spanName string) layerMetric {
	perUnit := map[string]float64{"ms": 1e6, "us": 1e3}[unit]
	return layerMetric{name, unit, func(v layerView) float64 { return v.dur(spanName, perUnit) }}
}

func countMetric(name, unit, key string) layerMetric {
	return layerMetric{name, unit, func(v layerView) float64 { return v.count(key) }}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics is every per-layer metric of BENCHMARK.json, in its order.
// The four engine.* counts at the end are the end-to-end metrics that are
// constants of a seed but differ too much between seeds to carry a bound
// there; `-compare` still holds them exact.
var layerMetrics = []layerMetric{
	durMetric("engine.dispatch_us", "us", "engine.dispatch"),
	durMetric("engine.estimate_out_us", "us", "engine.estimate_out"),
	{"engine.run_self_ms", "ms", func(v layerView) float64 {
		return v.dur("engine.job", 1e6) - v.dur("core.algo", 1e6)
	}},
	durMetric("hypergraph.classify_us", "us", "hypergraph.classify"),
	durMetric("stats.predict_us", "us", "stats.predict"),
	durMetric("gen.build_ms", "ms", "gen.build"),
	durMetric("core.oracle_ms", "ms", "core.oracle"),
	durMetric("core.algo_ms", "ms", "core.algo"),
	durMetric("core.load_instance_ms", "ms", "core.load_instance"),
	durMetric("core.full_reduce_ms", "ms", "core.full_reduce"),
	durMetric("core.binary_join_ms", "ms", "core.binary_join"),
	countMetric("core.binary_join_out", "tuples", "core.binary_join.out"),
	durMetric("core.emit_dist_ms", "ms", "core.emit_dist"),
	durMetric("mpc.from_relation_ms", "ms", "mpc.from_relation"),
	countMetric("mpc.from_relation_tuples", "tuples", "mpc.from_relation.tuples"),
	durMetric("mpc.shuffle_ms", "ms", "mpc.shuffle"),
	countMetric("mpc.shuffle_tuples", "tuples", "mpc.shuffle.tuples"),
	durMetric("mpc.replicate_ms", "ms", "mpc.replicate"),
	countMetric("mpc.replicate_tuples", "tuples", "mpc.replicate.tuples"),
	countMetric("mpc.replicate_allocs", "count", "mpc.replicate.allocs"),
	durMetric("mpc.emit_sharded_ms", "ms", "mpc.emit_sharded"),
	durMetric("mpc.emit_count_ms", "ms", "mpc.emit_count"),
	countMetric("mpc.exchanges", "count", "pass.exchanges"),
	countMetric("mpc.exchange_tuples", "tuples", "pass.exchange_tuples"),
	countMetric("mpc.active_dests", "count", "pass.active_dests"),
	durMetric("primitives.semijoin_ms", "ms", "primitives.semijoin"),
	durMetric("primitives.sum_by_key_ms", "ms", "primitives.sum_by_key"),
	durMetric("primitives.lookup_ms", "ms", "primitives.lookup"),
	durMetric("primitives.multi_numbering_ms", "ms", "primitives.multi_numbering"),
	durMetric("primitives.distinct_by_key_ms", "ms", "primitives.distinct_by_key"),
	countMetric("primitives.tuples_in", "tuples", "primitives.distinct_by_key.tuples_in"),
	{"relation.key_at_ns", "ns", func(v layerView) float64 {
		return ratio(v.dur("relation.key_at", 1), v.count("relation.key_at.tuples"))
	}},
	durMetric("runtime.fork_us", "us", "runtime.fork"),
	{"runtime.width_speedup", "ratio", func(v layerView) float64 {
		return ratio(v.dur("core.algo_w1", 1), v.dur("core.algo", 1))
	}},
	{"bench.trace_overhead_frac", "fraction", func(v layerView) float64 {
		// Pass by pass, so that drift of the machine cancels.
		var ratios []float64
		for k, ns := range v.durs["engine.job"] {
			ratios = append(ratios, ns/1e6/v.untraced[k])
		}
		return median(ratios) - 1
	}},
	countMetric("engine.load_max", "tuples", "pass.load_max"),
	countMetric("engine.load_over_linear", "ratio", "pass.load_over_linear"),
	countMetric("engine.rounds", "count", "pass.rounds"),
	{"engine.dispatch_regret", "ratio", func(v layerView) float64 { return v.regret }},
}

// series accumulates one sample per pass for every name: the sum of what
// the pass recorded under it. Spans arrive in pass order.
type series struct {
	vals map[string][]float64
	last map[string]int
}

func (s *series) add(name string, pass int, x float64) {
	if p, seen := s.last[name]; !seen || p != pass {
		s.vals[name] = append(s.vals[name], 0)
		s.last[name] = pass
	}
	s.vals[name][len(s.vals[name])-1] += x
}

// view sums each span name's durations and counts per pass. Set-up spans
// carry pass -1 and form one sample of their own.
func (t *tracer) view() layerView {
	durs := series{map[string][]float64{}, map[string]int{}}
	cnts := series{map[string][]float64{}, map[string]int{}}
	for _, sp := range t.spans {
		durs.add(sp.Name, sp.Pass, float64(sp.EndNs-sp.StartNs))
		for c, n := range sp.Counts {
			cnts.add(sp.Name+"."+c, sp.Pass, n)
		}
	}
	return layerView{durs: durs.vals, counts: cnts.vals}
}
