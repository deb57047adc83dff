package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/runtime"
)

func smokeConfig(t *testing.T, trace bool) config {
	t.Helper()
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	prev := runtime.SetParallelism(width)
	t.Cleanup(func() { runtime.SetParallelism(prev) })
	return config{workloads: names, seed: 2019, seconds: 1, trace: trace, scale: scales["smoke"], outDir: t.TempDir()}
}

// TestSmokeEndToEnd runs all six workloads at smoke scale twice, in this
// process: every end-to-end metric is reported with its unit for every
// workload, nothing fails, and the exact metrics repeat bit for bit.
func TestSmokeEndToEnd(t *testing.T) {
	cfg := smokeConfig(t, false)
	first, err := run(cfg, runRound)
	if err != nil {
		t.Fatal(err)
	}
	second, err := run(cfg, runRound)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		a, b := first.Workloads[w.name], second.Workloads[w.name]
		if a.Failed != 0 || a.Attempted == 0 {
			t.Errorf("%s: %d of %d jobs failed: %v", w.name, a.Failed, a.Attempted, a.Failures)
		}
		for _, m := range e2eMetrics {
			ra, ok := a.Metrics[m.name]
			if !ok || ra.Unit != m.unit {
				t.Errorf("%s: metric %s missing or without unit %q: %+v", w.name, m.name, m.unit, ra)
			}
			if m.exact && ra.Value != b.Metrics[m.name].Value {
				t.Errorf("%s: exact metric %s read %v, then %v", w.name, m.name, ra.Value, b.Metrics[m.name].Value)
			}
			if m.name != "failed_frac" && ra.Value <= 0 {
				t.Errorf("%s: metric %s is %v, want > 0", w.name, m.name, ra.Value)
			}
		}
	}
	if err := first.write(cfg); err != nil {
		t.Fatal(err)
	}
	// A/A: a result file compared with itself has nothing worse.
	path := filepath.Join(cfg.outDir, "results.json")
	var table bytes.Buffer
	worse, err := compareFiles(&table, path, path)
	if err != nil || worse {
		t.Fatalf("A/A compare: worse=%v err=%v\n%s", worse, err, table.String())
	}
	if got, want := strings.Count(table.String(), "same"), len(workloads)*len(e2eMetrics); got != want {
		t.Errorf("A/A compare printed %d same rows, want %d", got, want)
	}
}

// TestSmokeTrace runs the traced mode: every per-layer metric is reported
// for every workload, the layer split shows in the counts, and each trace
// file parses with every span's parent present.
func TestSmokeTrace(t *testing.T) {
	cfg := smokeConfig(t, true)
	rep, err := run(cfg, runRound)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		wr := rep.Workloads[w.name]
		if wr.Failed != 0 {
			t.Errorf("%s: %d jobs failed: %v", w.name, wr.Failed, wr.Failures)
		}
		for _, m := range layerMetrics {
			if r, ok := wr.Metrics[m.name]; !ok || r.Unit != m.unit {
				t.Errorf("%s: layer metric %s missing or without unit %q", w.name, m.name, m.unit)
			}
		}
		value := func(name string) float64 { return wr.Metrics[name].Value }
		// Defined everywhere: placement, the algorithm, the width ratio.
		for _, name := range []string{"core.algo_ms", "core.load_instance_ms", "mpc.from_relation_tuples",
			"engine.dispatch_us", "runtime.width_speedup", "relation.key_at_ns", "engine.load_max"} {
			if value(name) <= 0 {
				t.Errorf("%s: %s = %v, want > 0", w.name, name, value(name))
			}
		}
		// rhier routes nothing physically; every other workload does.
		if ex := value("mpc.exchanges"); (w.name == "rhier_skew") != (ex == 0) {
			t.Errorf("%s: mpc.exchanges = %v", w.name, ex)
		}
		// FullReduce and BinaryJoin are undefined on the cyclic query.
		if fr := value("core.full_reduce_ms"); (w.name == "triangle_grid") != (fr == 0) {
			t.Errorf("%s: core.full_reduce_ms = %v", w.name, fr)
		}
		if w.name == "triangle_grid" && value("mpc.replicate_tuples") <= 0 {
			t.Errorf("triangle_grid: mpc.replicate_tuples = %v", value("mpc.replicate_tuples"))
		}

		data, err := os.ReadFile(filepath.Join(cfg.outDir, "trace-"+w.name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var spans []span
		if err := json.Unmarshal(data, &spans); err != nil {
			t.Fatalf("%s: trace file: %v", w.name, err)
		}
		ids := map[int]string{}
		for _, sp := range spans {
			ids[sp.ID] = sp.Name
		}
		jobs := 0
		for _, sp := range spans {
			if _, ok := ids[sp.Parent]; sp.Parent != 0 && !ok {
				t.Errorf("%s: span %d (%s) has no parent %d", w.name, sp.ID, sp.Name, sp.Parent)
			}
			if sp.EndNs < sp.StartNs || sp.Workload != w.name {
				t.Errorf("%s: bad span %+v", w.name, sp)
			}
			if sp.Name == "engine.job" {
				jobs++
				if ids[sp.Parent] != "pass" {
					t.Errorf("%s: engine.job's parent is %q, want pass", w.name, ids[sp.Parent])
				}
			}
		}
		if jobs == 0 {
			t.Errorf("%s: no engine.job span", w.name)
		}
	}
}

// TestGateTrips feeds the correctness gate wrong answers: a wrong oracle
// count fails every job that carries it, whichever way the workload
// checks, and a table that differs in one tuple is not the same multiset.
func TestGateTrips(t *testing.T) {
	for _, name := range []string{"line3_out", "line3_count", "catalog_small"} {
		w, err := findWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		pw, err := prepare(w, 2019, scales["smoke"].div, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, errs := pw.runPass(nil); len(errs) != 0 {
			t.Fatalf("%s: the right count failed: %v", name, errs)
		}
		pw.wants[0]++
		var res roundResult
		res.pass(pw, nil)
		if res.Failed != 1 || res.Attempted != len(pw.insts) {
			t.Errorf("%s: wrong Want: %d of %d jobs failed, want 1", name, res.Failed, res.Attempted)
		}
	}

	w, _ := findWorkload("rhier_skew")
	pw, err := prepare(w, 2019, scales["smoke"].div, nil)
	if err != nil {
		t.Fatal(err)
	}
	naive := core.Naive(pw.insts[0])
	if !sameMultiset(naive, core.Naive(pw.insts[0])) {
		t.Error("a table is not its own multiset")
	}
	bad := naive.Clone()
	bad.Tuples[0][0]++
	if sameMultiset(naive, bad) {
		t.Error("a table with one tuple changed passed the multiset check")
	}

	// Exact metrics that differ between passes are a failure too.
	var res roundResult
	res.pass(pw, nil)
	res.Pass.Rounds++
	res.pass(pw, nil)
	if res.Failed != 1 {
		t.Errorf("drift of an exact metric: %d failures, want 1", res.Failed)
	}
}

func TestVerdict(t *testing.T) {
	lower := e2eMetric{name: "pass_ms_p50", better: "lower", bound: 0.10}
	higher := e2eMetric{name: "tuples_per_s", better: "higher", bound: 0.10}
	exact := e2eMetric{name: "rounds", better: "lower", exact: true}
	at := func(v, lo, hi float64) reading { return reading{Value: v, Hull: &[2]float64{lo, hi}} }
	for _, c := range []struct {
		m        e2eMetric
		old, new reading
		want     string
	}{
		{lower, at(100, 95, 105), at(109, 100, 112), "same"},        // within the bound
		{lower, at(100, 95, 105), at(120, 110, 125), "worse"},       // past it, hulls disjoint
		{lower, at(100, 95, 105), at(120, 104, 125), "unresolved"},  // past it, hulls overlap
		{lower, at(100, 95, 105), at(80, 75, 85), "better"},         // past it the good way
		{lower, at(100, 95, 105), at(80, 75, 96), "same"},           // better but unresolved
		{higher, at(100, 95, 105), at(80, 75, 85), "worse"},         // direction flips
		{higher, at(100, 95, 105), at(120, 110, 125), "better"},     //
		{exact, reading{Value: 52}, reading{Value: 52}, "same"},     // bit-identical
		{exact, reading{Value: 52}, reading{Value: 53}, "worse"},    // any rise
		{exact, reading{Value: 52}, reading{Value: 51}, "better"},   //
		{lower, reading{Value: 100}, reading{Value: 120}, "worse"},  // no hull: the value is its hull
		{lower, reading{Value: 100}, reading{Value: 100.5}, "same"}, //
	} {
		if got := verdict(c.m, c.old, c.new); got != c.want {
			t.Errorf("verdict(%s, %v → %v) = %s, want %s", c.m.name, c.old.Value, c.new.Value, got, c.want)
		}
	}
}

// TestCompareFailsOnWorse checks the exit condition: a rise in failed_frac
// or a resolved regression is reported, and files of different seeds are
// refused.
func TestCompareFailsOnWorse(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, rep report) string {
		data, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := func(seed uint64, p50, failed float64) report {
		return report{
			Env: environment{Seed: seed, Scale: "full"},
			Workloads: map[string]workloadReport{"line3_out": {Metrics: map[string]reading{
				"pass_ms_p50": {Value: p50, Hull: &[2]float64{p50 - 1, p50 + 1}},
				"failed_frac": {Value: failed},
			}}},
		}
	}
	old := write("old.json", base(1, 100, 0))
	for _, c := range []struct {
		name  string
		rep   report
		worse bool
	}{
		{"same.json", base(1, 101, 0), false},
		{"slow.json", base(1, 130, 0), true},
		{"failing.json", base(1, 100, 0.01), true},
	} {
		worse, err := compareFiles(&bytes.Buffer{}, old, write(c.name, c.rep))
		if err != nil || worse != c.worse {
			t.Errorf("%s: worse=%v err=%v, want worse=%v", c.name, worse, err, c.worse)
		}
	}
	if _, err := compareFiles(&bytes.Buffer{}, old, write("seed7.json", base(7, 100, 0))); err == nil {
		t.Error("files of different seeds were compared")
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with the tables the
// benchmark reports from.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var spec struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json says %+v, the benchmark %s: %s", i, spec.Workloads[i], w.name, w.why)
		}
	}
	var gated []metric
	for _, m := range e2eMetrics {
		if m.bound > 0 {
			gated = append(gated, metric{m.name, m.unit, m.better, m.bound})
		}
	}
	if len(spec.EndToEnd) != len(gated) {
		t.Fatalf("BENCHMARK.json has %d end_to_end metrics, the benchmark bounds %d", len(spec.EndToEnd), len(gated))
	}
	for i, m := range gated {
		if spec.EndToEnd[i] != m {
			t.Errorf("end_to_end %d: BENCHMARK.json says %+v, the benchmark %+v", i, spec.EndToEnd[i], m)
		}
	}
	if len(spec.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json has %d per_layer metrics, the benchmark %d", len(spec.PerLayer), len(layerMetrics))
	}
	for i, m := range layerMetrics {
		if spec.PerLayer[i].Name != m.name || spec.PerLayer[i].Unit != m.unit {
			t.Errorf("per_layer %d: BENCHMARK.json says %+v, the benchmark %s [%s]", i, spec.PerLayer[i], m.name, m.unit)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := percentile(xs, 0.9); math.Abs(got-4.6) > 1e-9 {
		t.Errorf("p90 = %v, want 4.6", got)
	}
	if h := hull(xs); h[0] != 1 || h[1] != 5 {
		t.Errorf("hull = %v, want [1 5]", *h)
	}
	if median(nil) != 0 || hull(nil) != nil {
		t.Error("no samples must read as 0 and no hull")
	}
}
