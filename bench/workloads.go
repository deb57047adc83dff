package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/hypergraph"
	"repro/internal/mpc"
)

// workload is one set of inputs the benchmark runs: the instances one pass
// joins, the cluster size, and the engine call made on each. Names are
// cited by later issues and never change.
type workload struct {
	name string
	why  string
	p    int
	// algo is the registry name handed to engine.RunNamed; "" dispatches
	// through engine.AutoRun.
	algo        string
	materialize bool
	// build makes the pass's instances from the generator rng alone; div
	// divides the target sizes (1 at full scale, 32 at smoke scale).
	build func(rng *mpc.Rng, div int) ([]*core.Instance, error)
}

// family builds a one-instance workload from a registered gen family.
func family(name string, in, out int) func(*mpc.Rng, int) ([]*core.Instance, error) {
	return func(rng *mpc.Rng, div int) ([]*core.Instance, error) {
		inst, err := gen.Build(name, rng, in/div, out/div)
		if err != nil {
			return nil, err
		}
		return []*core.Instance{inst}, nil
	}
}

// catalog builds one uniform instance per hypergraph.Catalog() query. At
// smoke scale the domain is 8 rather than 48/div, which would make every
// tuple of the seven-relation Figure 5 query join with every other.
func catalog(rng *mpc.Rng, div int) ([]*core.Instance, error) {
	n, dom := 256, 48
	if div > 1 {
		n, dom = 256/div, 8
	}
	var out []*core.Instance
	for _, e := range hypergraph.Catalog() {
		out = append(out, gen.ForQuery(rng, e.Q, n, dom))
	}
	return out, nil
}

// line3 is shared by line3_out and line3_count: the same data through the
// same layers, enumerated by one and aggregated by the other.
var line3 = family("random", 32768, 524288)

var workloads = []workload{
	{
		name: "line3_out", p: 64, materialize: true, build: line3,
		why: "output-dominated full join (OUT = 16 IN) whose table the caller keeps: BinaryJoin, Lookup and the sharded emit path",
	},
	{
		name: "line3_count", p: 64, algo: "count", build: line3,
		why: "same data aggregated, nothing enumerated: SumByKey and SemiJoin undiluted; join and emit gains must leave it unmoved",
	},
	{
		name: "acyclic_doubled", p: 64, algo: "acyclic", build: family("doubled", 8192, 131072),
		why: "the paper's section 5 algorithm on the Figure 3 doubled instance: 154 rounds, so per-round fixed cost dominates",
	},
	{
		name: "rhier_skew", p: 64, build: family("rhier", 65536, 0),
		why: "instance-optimal section 3 algorithm on hub skew: zero physical exchanges, so exchange changes must not move it",
	},
	{
		name: "triangle_grid", p: 64, build: family("triangle", 131072, 1048576),
		why: "the one cyclic query: all communication is ReplicateBy grid routing, the rest is per-server local join",
	},
	{
		name: "catalog_small", p: 16, build: catalog,
		why: "eleven small heterogeneous jobs per pass: classification, dispatch, cluster set-up and per-round bookkeeping dominate",
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// jobSeed fixes every Job.Seed: the salts of the algorithms' own hashing
// are part of the workload, like p. Were they drawn from -seed, runs on
// different seeds would not be comparable: triangle_grid's hash grid falls
// into one of two shapes 12 % apart in time and allocation whatever the data.
const jobSeed = 2019

// prepared is a workload with its inputs built and its oracle counts known.
type prepared struct {
	workload
	insts []*core.Instance
	wants []int64 // core.NaiveCount per instance
}

// prepare builds the workload's instances from seed — the seed reaches
// internal/gen only — and computes the oracle count of each. tr may be nil.
func prepare(w workload, seed uint64, div int, tr *tracer) (*prepared, error) {
	pw := &prepared{workload: w}
	var err error
	tr.do("gen.build", func() counts {
		pw.insts, err = w.build(mpc.NewRng(seed), div)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	tr.do("core.oracle", func() counts {
		for _, in := range pw.insts {
			pw.wants = append(pw.wants, core.NaiveCount(in))
		}
		return nil
	})
	return pw, nil
}

// job is the engine.Job for instance i. Every full-join job carries the
// oracle count as Want/CheckWant; "count" emits one scalar, so its OUT is
// 1 and runPass checks Result.Annot instead.
func (pw *prepared) job(i int) engine.Job {
	job := engine.Job{
		In:          pw.insts[i],
		P:           pw.p,
		Seed:        mpc.ChildSeed(jobSeed, i),
		Materialize: pw.materialize,
	}
	if pw.algo != "count" {
		job.Want, job.CheckWant = pw.wants[i], true
	}
	return job
}

// run makes the workload's engine call for one job.
func (pw *prepared) run(job engine.Job) (engine.Result, error) {
	if pw.algo == "" {
		return engine.AutoRun(job)
	}
	return engine.RunNamed(pw.algo, job)
}

// passStats is what one pass reports: the exact metrics, which must repeat
// on every pass, and the tuple count behind tuples_per_s.
type passStats struct {
	LoadMax        int     `json:"load_max"`
	LoadOverLinear float64 `json:"load_over_linear"`
	Rounds         int     `json:"rounds"`
	CommTuples     int     `json:"comm_tuples"`
	// Exchange sums Result.Exchange: the physical exchanges of the pass.
	Exchange mpc.ExchangeStats `json:"exchange"`
	Tuples   int64             `json:"tuples"` // Σ (IN + Result.OUT)
}

// runPass runs every job of the workload once, verifies each, and returns
// the pass's exact metrics with one error per failed job. tr may be nil.
func (pw *prepared) runPass(tr *tracer) (passStats, []error) {
	var ps passStats
	var errs []error
	for i := range pw.insts {
		job := pw.job(i)
		var res engine.Result
		var err error
		tr.do("engine.job", func() counts {
			res, err = pw.run(job)
			return counts{"out": float64(res.OUT), "load": float64(res.Load), "rounds": float64(res.Rounds)}
		})
		if err == nil {
			err = pw.verify(i, res)
		}
		if err != nil {
			errs = append(errs, fmt.Errorf("%s job %d: %w", pw.name, i, err))
		}
		in := job.In.IN()
		if res.Load > ps.LoadMax {
			ps.LoadMax = res.Load
		}
		if in > 0 {
			if r := float64(res.Load) * float64(pw.p) / float64(in); r > ps.LoadOverLinear {
				ps.LoadOverLinear = r
			}
		}
		ps.Rounds += res.Rounds
		ps.CommTuples += res.TotalComm
		ps.Exchange.Exchanges += res.Exchange.Exchanges
		ps.Exchange.Tuples += res.Exchange.Tuples
		ps.Exchange.ActiveDests += res.Exchange.ActiveDests
		ps.Tuples += int64(in) + res.OUT
	}
	return ps, errs
}

// verify checks what engine.Run's own Want check does not cover: the
// aggregate value of "count" and the size of a materialized table.
func (pw *prepared) verify(i int, res engine.Result) error {
	want := pw.wants[i]
	if pw.algo == "count" && res.Annot != want {
		return fmt.Errorf("count returned %d, oracle says %d", res.Annot, want)
	}
	if pw.materialize && (res.Table == nil || int64(res.Table.Size()) != want) {
		return fmt.Errorf("materialized table does not hold the oracle's %d tuples", want)
	}
	return nil
}
