package main

import (
	"fmt"
	"os"
	"path/filepath"
	stdruntime "runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/relation"
)

// warmupPasses run untimed before every round's timed passes, so pools,
// the heap and the page cache are in their steady state.
const warmupPasses = 3

// minTimedPasses is the least a time-limited round measures, however slow
// a pass is.
const minTimedPasses = 3

// roundConfig is one (workload, round) of a run: what a child process is
// asked to do. Round 0 also runs the table check and the regret candidates.
type roundConfig struct {
	config
	workload string
	round    int
}

// roundResult is what one round measured; the parent merges R of them.
type roundResult struct {
	Workload   string    `json:"workload"`
	Round      int       `json:"round"`
	IN         int       `json:"in"`
	OUT        int64     `json:"out"`
	SetupS     float64   `json:"setup_s"`
	PassMS     []float64 `json:"pass_ms"`
	Tuples     int64     `json:"tuples"` // Σ (IN + Result.OUT) over the timed passes
	Pass       passStats `json:"pass"`   // the exact metrics, identical on every pass
	Mallocs    uint64    `json:"mallocs"`
	AllocBytes uint64    `json:"alloc_bytes"`
	PeakRSSKB  float64   `json:"peak_rss_kb"` // median over the timed passes of VmHWM
	Attempted  int       `json:"attempted"`   // jobs run, warm-up and candidates included
	Failed     int       `json:"failed"`
	Failures   []string  `json:"failures,omitempty"`
	Regret     float64   `json:"regret,omitempty"`
	// Layers holds the per-layer metrics of a traced round.
	Layers map[string]float64 `json:"layers,omitempty"`
}

func (r *roundResult) fail(err error) {
	r.Failed++
	if len(r.Failures) < 8 {
		r.Failures = append(r.Failures, err.Error())
	}
}

// pass runs one pass and books its jobs, its failures and any drift of
// the exact metrics from the round's first pass.
func (r *roundResult) pass(pw *prepared, tr *tracer) passStats {
	ps, errs := pw.runPass(tr)
	for _, err := range errs {
		r.fail(err)
	}
	exact := ps
	exact.Tuples = 0
	switch {
	case r.Attempted == 0:
		r.Pass = exact
	case len(errs) == 0 && exact != r.Pass:
		r.fail(fmt.Errorf("%s: exact metrics drifted between passes: %+v, then %+v", pw.name, r.Pass, exact))
	}
	r.Attempted += len(pw.insts)
	return ps
}

// passes runs body back to back — one client, each pass after the last —
// n times, or when n is 0 until seconds have gone by.
func passes(n int, seconds float64, body func(k int)) {
	start := time.Now()
	for k := 0; ; k++ {
		if n > 0 && k == n {
			return
		}
		if n == 0 && k >= minTimedPasses && time.Since(start).Seconds() >= seconds {
			return
		}
		body(k)
	}
}

// timedPass runs one untraced pass and books its wall time and tuples.
func (r *roundResult) timedPass(pw *prepared) {
	t := time.Now()
	ps := r.pass(pw, nil)
	r.PassMS = append(r.PassMS, float64(time.Since(t).Nanoseconds())/1e6)
	r.Tuples += ps.Tuples
}

// runRound is one round of one workload: set-up, warm-up, the timed (or
// traced) passes, and on round 0 the checks that are too slow to repeat.
func runRound(cfg roundConfig) (roundResult, error) {
	w, err := findWorkload(cfg.workload)
	if err != nil {
		return roundResult{}, err
	}
	res := roundResult{Workload: w.name, Round: cfg.round}
	var tr *tracer
	if cfg.trace {
		tr = newTracer(w.name)
		tr.pass = -1
	}

	start := time.Now()
	var pw *prepared
	tr.do("setup", func() counts {
		if pw, err = prepare(w, cfg.seed, cfg.scale.div, tr); err != nil {
			return nil
		}
		tr.do("warmup", func() counts {
			for k := 0; k < warmupPasses; k++ {
				res.pass(pw, nil)
			}
			return nil
		})
		return nil
	})
	if err != nil {
		return res, err
	}
	res.SetupS = time.Since(start).Seconds()
	for i, in := range pw.insts {
		res.IN += in.IN()
		res.OUT += pw.wants[i]
	}

	if cfg.trace {
		res.traced(pw, tr, cfg)
	} else {
		// The oracle's join is set-up, not the engine's: start the timed
		// passes from a collected heap, and restart the resident-set
		// high-water mark before every pass. One mark per round swings with
		// collector timing; the median of a round's per-pass marks does not.
		debug.FreeOSMemory()
		resetPeakRSS()
		var peaks []float64
		var before, after stdruntime.MemStats
		stdruntime.ReadMemStats(&before)
		passes(cfg.scale.passes, cfg.seconds/rounds, func(int) {
			res.timedPass(pw)
			peaks = append(peaks, float64(peakRSSKB()))
			resetPeakRSS()
		})
		stdruntime.ReadMemStats(&after)
		res.Mallocs = after.Mallocs - before.Mallocs
		res.AllocBytes = after.TotalAlloc - before.TotalAlloc
		res.PeakRSSKB = median(peaks)
	}

	if cfg.round == 0 {
		res.checkTables(pw)
		res.Regret = res.regret(pw)
	}
	if cfg.trace {
		view := tr.view()
		view.untraced = res.PassMS
		view.regret = res.Regret
		res.Layers = map[string]float64{}
		for _, m := range layerMetrics {
			res.Layers[m.name] = m.value(view)
		}
		if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
			return res, err
		}
		if err := tr.write(filepath.Join(cfg.outDir, "trace-"+w.name+".json")); err != nil {
			return res, err
		}
	}
	return res, nil
}

// traced runs the passes of a traced round. Each is an untraced pass, then
// a root "pass" span holding the same jobs traced and, as their sibling, the
// "replay" of the layer probes. Both passes start from a collected heap —
// the probes' garbage is not the next job's to collect — so the two differ
// by the tracing alone, which is what bench.trace_overhead_frac reports.
func (r *roundResult) traced(pw *prepared, tr *tracer, cfg roundConfig) {
	passes(cfg.scale.passes, cfg.seconds, func(k int) {
		stdruntime.GC()
		r.timedPass(pw)

		stdruntime.GC()
		tr.pass = k
		tr.do("pass", func() counts {
			ps := r.pass(pw, tr)
			tr.do("replay", func() counts {
				pw.replay(tr)
				return nil
			})
			return counts{
				"load_max": float64(ps.LoadMax), "load_over_linear": ps.LoadOverLinear,
				"rounds": float64(ps.Rounds), "comm_tuples": float64(ps.CommTuples),
				"exchanges": float64(ps.Exchange.Exchanges), "exchange_tuples": float64(ps.Exchange.Tuples),
				"active_dests": float64(ps.Exchange.ActiveDests),
			}
		})
	})
}

// checkTables compares, once per workload, every job's materialized table
// with core.Naive as a sorted multiset of (tuple, annotation). "count"
// emits a scalar and has no table; runPass checks its value on every job.
func (r *roundResult) checkTables(pw *prepared) {
	if pw.algo == "count" {
		return
	}
	for i, in := range pw.insts {
		job := pw.job(i)
		job.Materialize = true
		got, err := pw.run(job)
		r.Attempted++
		if err == nil && !sameMultiset(got.Table, core.Naive(in)) {
			err = fmt.Errorf("table differs from core.Naive as a multiset")
		}
		if err != nil {
			r.fail(fmt.Errorf("%s job %d: %w", pw.name, i, err))
		}
	}
}

func sameMultiset(a, b *relation.Relation) bool {
	if a == nil || b == nil || a.Size() != b.Size() || !a.Schema.Equal(b.Schema) {
		return false
	}
	keys := func(r *relation.Relation) []string {
		ks := make([]string, r.Size())
		for i, t := range r.Tuples {
			ks[i] = relation.EncodeTuple(t) + relation.EncodeValues(relation.Value(r.Annot(i)))
		}
		sort.Strings(ks)
		return ks
	}
	ka, kb := keys(a), keys(b)
	for i := range ka {
		if ka[i] != kb[i] {
			return false
		}
	}
	return true
}

// regret grades dispatch against the candidates it did not pick: the
// measured load of engine.AutoCost's pick over the least measured load of
// any applicable full-join algorithm but the sequential oracle, the
// largest ratio over the workload's instances. Every candidate runs once.
func (r *roundResult) regret(pw *prepared) float64 {
	worst := 1.0
	for i, in := range pw.insts {
		pick, _, err := engine.AutoCost(in, pw.p, pw.wants[i])
		if err != nil {
			r.Attempted++
			r.fail(fmt.Errorf("%s job %d: %w", pw.name, i, err))
			continue
		}
		picked, best := 0, 0
		for _, a := range engine.All() {
			if a.Name() == "naive" || !engine.IsFullJoin(a) || !a.Applies(in.Q) {
				continue
			}
			job := pw.job(i)
			job.Materialize = false
			job.Want, job.CheckWant = pw.wants[i], true
			got, err := engine.Run(a, job)
			r.Attempted++
			if err != nil {
				r.fail(fmt.Errorf("%s job %d candidate: %w", pw.name, i, err))
				continue
			}
			if best == 0 || got.Load < best {
				best = got.Load
			}
			if a.Name() == pick.Name() {
				picked = got.Load
			}
		}
		if best > 0 && float64(picked)/float64(best) > worst {
			worst = float64(picked) / float64(best)
		}
	}
	return worst
}

// peakRSSKB reads the process's resident-set high-water mark.
func peakRSSKB() int64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseInt(f[1], 10, 64)
			return kb
		}
	}
	return 0
}

// resetPeakRSS restarts the high-water mark at the current resident set.
// Where the kernel refuses, peak_rss_mb includes the oracle's join.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}
