// Command bench is the repository's Job→Result benchmark: six workloads
// driven through engine.AutoRun / engine.RunNamed by one client in a closed
// loop, every job verified against the sequential oracle, thirteen
// end-to-end metrics per workload, and a traced mode that times each
// layer's public functions from outside. See README.md.
//
//	go run . [-workload a,b] [-seed n] [-seconds s] [-trace 0|1] [-scale full|smoke]
//	go run . -compare old.json new.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	stdruntime "runtime"
	"runtime/debug"
	"strings"
	"text/tabwriter"

	"repro/internal/runtime"
)

const (
	// rounds is R: every workload is measured in R rounds, interleaved
	// with the other workloads' and each in a fresh process, so a
	// workload's numbers never depend on what ran before it and the R
	// per-round estimates are independent batches for the hulls.
	rounds = 5
	// width pins the data plane (runtime.Fork) to the machine's two cores.
	width = 2
)

// scale sizes a run: full is the benchmark; smoke divides every instance
// by 32 and runs 3 passes per round in-process, for the tier-1 test.
type scale struct {
	name   string
	div    int
	passes int // timed passes per round; 0 runs for the round's share of -seconds
}

var scales = map[string]scale{
	"full":  {name: "full", div: 1},
	"smoke": {name: "smoke", div: 32, passes: 3},
}

// config is one invocation of the benchmark.
type config struct {
	workloads []string
	seed      uint64
	seconds   float64
	trace     bool
	scale     scale
	outDir    string
}

// environment is recorded with every result file.
type environment struct {
	Seed       uint64  `json:"seed"`
	Scale      string  `json:"scale"`
	Seconds    float64 `json:"seconds"`
	Rounds     int     `json:"rounds"`
	Width      int     `json:"width"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
}

// workloadReport is one workload's part of a result file.
type workloadReport struct {
	Why       string             `json:"why"`
	IN        int                `json:"in"`
	OUT       int64              `json:"out"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	Metrics   map[string]reading `json:"metrics"`
}

// report is out/results.json (timed) or out/layers.json (traced).
type report struct {
	Env       environment               `json:"env"`
	Workloads map[string]workloadReport `json:"workloads"`
}

func main() {
	var (
		names   = flag.String("workload", "", "comma-separated workloads to run (default: all six)")
		seed    = flag.Uint64("seed", 2019, "seed of the instance generators and the jobs")
		seconds = flag.Float64("seconds", 10, "timed seconds per workload, split over the rounds")
		trace   = flag.Int("trace", 0, "1 runs the traced mode and reports the per-layer metrics")
		scaleF  = flag.String("scale", "full", "full or smoke (sizes / 32, 3 passes, in-process)")
		outDir  = flag.String("out", "out", "directory for results.json, layers.json and trace files")
		compare = flag.Bool("compare", false, "compare two results.json files: -compare old.json new.json")
		child   = flag.Int("child", -1, "internal: run this one round of -workload and print its result")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(errors.New("usage: -compare old.json new.json"))
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	sc, ok := scales[*scaleF]
	if !ok {
		fatal(fmt.Errorf("unknown scale %q", *scaleF))
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace != 0, scale: sc, outDir: *outDir}
	if *names == "" {
		for _, w := range workloads {
			cfg.workloads = append(cfg.workloads, w.name)
		}
	} else {
		for _, name := range strings.Split(*names, ",") {
			if _, err := findWorkload(name); err != nil {
				fatal(err)
			}
			cfg.workloads = append(cfg.workloads, name)
		}
	}
	runtime.SetParallelism(width)

	if *child >= 0 {
		res, err := runRound(roundConfig{cfg, cfg.workloads[0], *child})
		if err != nil {
			fatal(err)
		}
		if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
			fatal(err)
		}
		return
	}

	round := spawnRound
	if sc.name == "smoke" {
		round = runRound
	}
	rep, err := run(cfg, round)
	if err != nil {
		fatal(err)
	}
	if err := rep.write(cfg); err != nil {
		fatal(err)
	}
	rep.print(os.Stdout, cfg)
	attempted, failed := 0, 0
	for _, w := range rep.Workloads {
		attempted += w.Attempted
		failed += w.Failed
	}
	if len(cfg.workloads) == 1 {
		// The benchmark contract's result line: one workload, one object.
		line, err := json.Marshal(map[string]any{
			"correct": failed == 0, "attempted": attempted, "failed": failed,
			"metrics": rep.contractMetrics(cfg.workloads[0]),
		})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s\n", line)
	}
	if failed > 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// spawnRound runs one round in a fresh child process of this binary.
func spawnRound(rc roundConfig) (roundResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return roundResult{}, err
	}
	traceArg := "0"
	if rc.trace {
		traceArg = "1"
	}
	cmd := exec.Command(exe,
		"-child", fmt.Sprint(rc.round), "-workload", rc.workload,
		"-seed", fmt.Sprint(rc.seed), "-seconds", fmt.Sprint(rc.seconds),
		"-trace", traceArg, "-scale", rc.scale.name, "-out", rc.outDir)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return roundResult{}, fmt.Errorf("%s round %d: %w", rc.workload, rc.round, err)
	}
	var res roundResult
	if err := json.Unmarshal(out, &res); err != nil {
		return roundResult{}, fmt.Errorf("%s round %d: %w", rc.workload, rc.round, err)
	}
	return res, nil
}

// run measures the configured workloads: R interleaved rounds (A B C, A B
// C, …) for a timed run, one round each for a traced run. round is
// spawnRound, or runRound to stay in this process.
func run(cfg config, round func(roundConfig) (roundResult, error)) (*report, error) {
	n := rounds
	if cfg.trace {
		n = 1
	}
	results := map[string][]roundResult{}
	for r := 0; r < n; r++ {
		for _, name := range cfg.workloads {
			res, err := round(roundConfig{cfg, name, r})
			if err != nil {
				return nil, err
			}
			if r > 0 && res.Failed == 0 && res.Pass != results[name][0].Pass {
				res.fail(fmt.Errorf("%s: exact metrics drifted between rounds: %+v, then %+v",
					name, results[name][0].Pass, res.Pass))
			}
			results[name] = append(results[name], res)
		}
	}

	rep := &report{Env: cfg.environment(), Workloads: map[string]workloadReport{}}
	for _, name := range cfg.workloads {
		w, _ := findWorkload(name)
		rs := results[name]
		wr := workloadReport{Why: w.why, IN: rs[0].IN, OUT: rs[0].OUT}
		for _, r := range rs {
			wr.Attempted += r.Attempted
			wr.Failed += r.Failed
			wr.Failures = append(wr.Failures, r.Failures...)
		}
		if cfg.trace {
			wr.Metrics = map[string]reading{}
			for _, m := range layerMetrics {
				wr.Metrics[m.name] = reading{Value: rs[0].Layers[m.name], Unit: m.unit}
			}
		} else {
			wr.Metrics = summarize(rs)
		}
		rep.Workloads[name] = wr
	}
	return rep, nil
}

func (cfg config) environment() environment {
	env := environment{
		Seed: cfg.seed, Scale: cfg.scale.name, Seconds: cfg.seconds, Rounds: rounds,
		Width: runtime.Parallelism(), NProc: stdruntime.NumCPU(), GOMAXPROCS: stdruntime.GOMAXPROCS(0),
		GoVersion: stdruntime.Version(), Commit: "unknown",
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				env.Commit = s.Value
			}
		}
	}
	return env
}

func (rep *report) write(cfg config) error {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	name := "results.json"
	if cfg.trace {
		name = "layers.json"
	}
	return os.WriteFile(filepath.Join(cfg.outDir, name), append(data, '\n'), 0o644)
}

// metricOrder lists the metric names of the run's mode in reporting order.
func metricOrder(trace bool) []string {
	var names []string
	if trace {
		for _, m := range layerMetrics {
			names = append(names, m.name)
		}
		return names
	}
	for _, m := range e2eMetrics {
		names = append(names, m.name)
	}
	return names
}

// print writes the run as a table: one row per (workload, metric).
func (rep *report) print(out io.Writer, cfg config) {
	e := rep.Env
	fmt.Fprintf(out, "seed=%d scale=%s seconds=%g rounds=%d width=%d nproc=%d GOMAXPROCS=%d %s commit=%s\n",
		e.Seed, e.Scale, e.Seconds, e.Rounds, e.Width, e.NProc, e.GOMAXPROCS, e.GoVersion, e.Commit)
	bounds := map[string]e2eMetric{}
	for _, m := range e2eMetrics {
		bounds[m.name] = m
	}
	tw := tabwriter.NewWriter(out, 0, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tvalue\tunit\tbetter\tbound\tn\thull")
	for _, name := range cfg.workloads {
		w := rep.Workloads[name]
		for _, metric := range metricOrder(cfg.trace) {
			r := w.Metrics[metric]
			better, bound, n := "", "", ""
			if m, ok := bounds[metric]; ok {
				better, bound = m.better, m.boundLabel()
			}
			if r.N > 0 {
				n = fmt.Sprint(r.N)
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%s\t%s\t%s\t%s\t%s\n", name, metric, r.Value, r.Unit, better, bound, n, hullString(r))
		}
		for _, f := range w.Failures {
			fmt.Fprintf(tw, "%s\tFAILED\t%s\n", name, f)
		}
	}
	tw.Flush()
}

// contractMetrics is the metrics object of the benchmark contract's result
// line: every end_to_end metric of BENCHMARK.json for a timed run, every
// per_layer metric for a traced one, each as measured.
func (rep *report) contractMetrics(workload string) map[string]map[string]any {
	listed := map[string]bool{}
	for _, m := range e2eMetrics {
		listed[m.name] = m.bound > 0
	}
	out := map[string]map[string]any{}
	for name, r := range rep.Workloads[workload].Metrics {
		if gated, e2e := listed[name]; e2e && !gated {
			continue
		}
		out[name] = map[string]any{"value": r.Value, "unit": r.Unit}
	}
	return out
}
