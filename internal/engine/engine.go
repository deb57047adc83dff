// Package engine is the repository's unified execution surface: every join
// algorithm in internal/core is one Spec in an ordered catalog, selected
// per query by cost-based dispatch. Callers
// describe WHAT to run with a Job and read the measurement back as a
// Result; they never touch clusters, emitters or per-algorithm signatures
// directly.
//
// The paper's Figure 1 hierarchy (tall-flat ⊂ hierarchical ⊂
// r-hierarchical ⊂ acyclic) is executable here: classification names the
// candidate set, and AutoCost ranks the candidates by predicted
// per-server load — each entry's repoload-verified load class refined
// by the stats formula for its declared bound — picking the argmin, with
// the Figure 1 preference order as the deterministic tiebreak. Auto is
// the statistics-free projection (preference order alone), and every
// Result records predicted next to measured load so mispredictions are
// visible. This is the seam the ROADMAP's cross-process sharding item
// plugs into — a serving layer only needs Job in, Result out.
package engine

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/hypergraph"
	"repro/internal/mpc"
	"repro/internal/relation"
	"repro/internal/runtime"
)

// Job describes one execution: the instance plus every knob an algorithm
// can take. Zero values select defaults (P=DefaultP, the instance's
// semiring, a fresh cluster, no verification).
type Job struct {
	// In is the (query, relations) pair to join. Required.
	In *core.Instance
	// P is the cluster size; 0 selects DefaultP.
	P int
	// Seed drives every pseudorandom choice an algorithm makes.
	Seed uint64
	// Ring overrides the instance's semiring without mutating it.
	Ring *relation.Semiring
	// Emitter, when non-nil, observes the result after the run: every row
	// of Result.Table's, in its order, one serial Emit each.
	Emitter mpc.Emitter
	// Materialize asks Run to collect the result into Result.Table.
	Materialize bool
	// Tau overrides the line-3 heavy/light degree threshold (≤ 0 keeps the
	// paper's balanced τ = √(OUT/IN)).
	Tau int64
	// Order is the Yannakakis join order (nil = along the join tree).
	Order []int
	// GroupBy is the output attribute set of aggregate runs.
	GroupBy hypergraph.AttrSet
	// Reduce asks one-round algorithms to run the linear-load semi-join
	// reduction first (the multi-round Table 1 variant).
	Reduce bool
	// Want is the expected output size, enforced when CheckWant is set.
	Want int64
	// CheckWant verifies the measured OUT against Want (set both when the
	// oracle count is already known — the harness computes it once per
	// instance and shares it across algorithms).
	CheckWant bool
	// CheckOracle verifies the measured OUT against core.NaiveCount,
	// computed by the engine. Expensive: materializes the sequential join.
	CheckOracle bool

	// Cluster is the cluster the job runs on. Run fills it with a fresh
	// mpc.NewCluster(P); pre-setting it is for tests that replay rounds.
	Cluster *mpc.Cluster
}

// DefaultP is the cluster size when Job.P is zero, matching the paper's
// default experiment scale.
const DefaultP = 64

// Result is one measured execution: what the bare (OUT, load, rounds)
// tuples of the old harness carried, plus provenance.
type Result struct {
	// Algorithm is the registry name of the algorithm that ran.
	Algorithm string
	// OUT is the number of results emitted.
	OUT int64
	// Annot is the semiring sum of emitted annotations (the aggregate value
	// for scalar algorithms such as "count").
	Annot int64
	// Load is the realized load L: max tuples received by any server in
	// any round, including the initial distribution.
	Load int
	// Rounds is the number of communication rounds.
	Rounds int
	// Bound names the load bound the algorithm tracks.
	Bound string
	// LoadClass is the algorithm's declared load class (perP, frac, or
	// linear), statically verified by the repoload analyzer. "" when the
	// algorithm declares none.
	LoadClass string
	// Predicted is the per-server load the dispatcher's cost model
	// predicted for this run before it executed (PredictLoad over the
	// job's OUT estimate: Want when the caller knew the oracle count, the
	// EstimateOut statistics otherwise). Compare against Load to see
	// mispredictions; the Fig1 tables and cmd/classify render the ratio.
	Predicted float64
	// PredictedBy names the stats formula behind Predicted.
	PredictedBy string
	// Candidates is the ranked scorecard cost-based dispatch considered
	// (argmin first, rejected candidates last). Nil when the algorithm
	// was chosen explicitly rather than through AutoRun.
	Candidates []Candidate
	// TotalComm is the total number of tuples communicated across all
	// rounds and servers, excluding the initial distribution. Rounds
	// merged from sub-clusters contribute their per-round maxima — the
	// only statistic the model's composition rules preserve.
	TotalComm int
	// Exchange reports the batched exchange's counters for the run —
	// routed rounds, tuples delivered, active destinations — including
	// exchanges executed on merged sub-clusters. Synthetically charged
	// communication (Charge/ChargeRound: statistics passes, packed
	// groups, directory broadcasts) is counted by TotalComm but is not an
	// exchange, so algorithms that route nothing physically report zero.
	Exchange mpc.ExchangeStats
	// Verified is true when a requested OUT check ran and passed.
	Verified bool
	// Dist is the distributed result, as the algorithm returned it; OUT,
	// Annot and Table are read off it. Read-only.
	Dist *mpc.Dist
	// Table is the result as one relation over the output schema when
	// Job.Materialize asked for it (nil otherwise), part-major. Read-only:
	// its tuples are windows into Dist's buffers, not copies. Annots is nil
	// when every annotation is 1; read it through Annot(i).
	Table *relation.Relation
}

// ErrVerify wraps every output-verification failure, so callers can report
// mismatches without losing the measurement.
var ErrVerify = errors.New("output verification failed")

// instance returns the effective instance: the job's, re-rung when Ring is
// set (shallow copy — relations are shared, never mutated).
func (job Job) instance() *core.Instance {
	if job.Ring == nil {
		return job.In
	}
	cp := *job.In
	cp.Ring = *job.Ring
	return &cp
}

// ErrAborted wraps every panic raised below the job boundary — an
// invariant one of the algorithms, primitives or the simulator refuses to
// continue past (a duplicate directory key, an oversized charge, a schema
// mismatch, an instance with fewer relations than edges) — so a bad Job
// costs its caller an error naming the job, not the process.
var ErrAborted = errors.New("job aborted")

// Run executes a on a fresh cluster sized per job and measures it. The
// returned Result is valid even when err wraps ErrVerify — the run
// completed, only the check failed. A panic below Run (runtime.Fork
// re-raises its workers' on this goroutine, stack attached) comes back as
// an error wrapping ErrAborted.
func Run(a Algorithm, job Job) (Result, error) {
	if a == nil {
		return Result{}, errors.New("engine: Run with no algorithm")
	}
	return execute(a, job)
}

// RunNamed looks the algorithm up in the catalog and runs it.
func RunNamed(name string, job Job) (Result, error) {
	a, ok := Lookup(name)
	if !ok {
		return Result{}, fmt.Errorf("engine: unknown algorithm %q (have %v)", name, Names())
	}
	return execute(a, job)
}

// AutoRun dispatches the job's query through cost-based dispatch
// (AutoCost) and runs the argmin candidate: the whole engine API in one
// call. The Result carries the ranked candidate scorecard alongside the
// predicted and measured loads, so mispredictions are visible to every
// caller. Dispatch runs inside the job boundary: an instance it cannot
// price aborts like one an algorithm cannot run, with "dispatch" in the
// algorithm's place.
func AutoRun(job Job) (Result, error) {
	return execute(nil, job)
}

// execute is the one job boundary: it chooses the algorithm (a, or
// AutoCost's pick when a is nil), prices it, runs it on a fresh cluster
// and measures it, and holds the package's only recover.
func execute(a Algorithm, job Job) (res Result, err error) {
	if job.In == nil {
		return Result{}, errors.New("engine: job has no instance")
	}
	var cands []Candidate
	defer func() {
		if r := recover(); r != nil {
			who := "dispatch"
			res = Result{Candidates: cands}
			if a != nil {
				who, res.Algorithm = a.name, a.name
			}
			err = fmt.Errorf("engine: %s: %w (P=%d Seed=%d query %v): %v",
				who, ErrAborted, job.P, job.Seed, job.In.Q, r)
		}
	}()
	if job.P < 0 {
		panic("engine: negative cluster size")
	}
	if job.P == 0 {
		job.P = DefaultP
	}
	if a != nil && !a.applies(job.In.Q) {
		return Result{}, fmt.Errorf("engine: %s does not apply to %v (class %s)",
			a.name, job.In.Q, job.In.Q.Classify())
	}
	outEst, predicted, predictedBy := outEstimate(job), 0.0, ""
	if a != nil {
		predicted, predictedBy = PredictLoad(a, job.In, outEst, job.P)
	} else {
		if a, cands, err = AutoCost(job.In, job.P, outEst); err != nil {
			return Result{Candidates: cands}, err
		}
		predicted, predictedBy = cands[0].Predicted, cands[0].PredictedBy
	}
	job.In = job.instance()
	job.Ring = nil
	if job.Cluster == nil {
		job.Cluster = mpc.NewCluster(job.P)
	}
	dist, err := a.run(job)
	if err != nil {
		return Result{Algorithm: a.name, Candidates: cands}, fmt.Errorf("engine: %s: %w", a.name, err)
	}
	// The result is what the algorithm returned, in the emitted layout (a
	// no-op for every full join but hypercube's): count it, fold it, table
	// it, and only then let the caller's observer watch it go by.
	out := dist.Project(emitSchema(a, job))
	res = Result{
		Algorithm:   a.name,
		OUT:         int64(out.Size()),
		Annot:       foldAnnots(out, job.In.Ring),
		Load:        job.Cluster.MaxLoad(),
		Rounds:      job.Cluster.Rounds(),
		Bound:       a.bound,
		LoadClass:   a.load,
		Predicted:   predicted,
		PredictedBy: predictedBy,
		Candidates:  cands,
		TotalComm:   job.Cluster.TotalComm(),
		Exchange:    job.Cluster.Exchange(),
		Dist:        dist,
	}
	if job.Materialize {
		res.Table = out.Rel()
	}
	core.EmitDist(out, out.Schema, job.Emitter)
	want, check := job.Want, job.CheckWant
	// CheckOracle stands down for non-full-join algorithms (scalar and
	// aggregate emissions are not the full join's cardinality).
	if job.CheckOracle && a.fullJoin {
		if a.oracle {
			// The algorithm IS the oracle; re-running the sequential join
			// would verify it against itself at double the dominant cost.
			res.Verified = true
		} else {
			want, check = core.NaiveCount(job.In), true
		}
	}
	if check {
		if res.OUT != want {
			return res, fmt.Errorf("engine: %s: %w: emitted %d results, oracle says %d",
				a.name, ErrVerify, res.OUT, want)
		}
		res.Verified = true
	}
	return res, nil
}

// foldAnnots is the semiring sum of d's annotations: one fold per part,
// merged in part order, so the value is the same at every width.
func foldAnnots(d *mpc.Dist, ring relation.Semiring) int64 {
	sums := make([]int64, len(d.Parts))
	runtime.Fork(len(d.Parts), func(s int) {
		part, sum := &d.Parts[s], ring.Zero
		for i := 0; i < part.Len(); i++ {
			sum = ring.Add(sum, part.Annot(i))
		}
		sums[s] = sum
	})
	total := ring.Zero
	for _, sum := range sums {
		total = ring.Add(total, sum)
	}
	return total
}

// emitSchema is the schema of what a emits under job: the full join's
// canonical output schema for full-join algorithms, the group-by schema
// for aggregates, and the empty schema for scalar emissions.
func emitSchema(a Algorithm, job Job) relation.Schema {
	if a.fullJoin {
		return job.In.OutputSchema()
	}
	if len(job.GroupBy) > 0 {
		return job.GroupBy.Schema()
	}
	return relation.Schema{}
}

// outEstimate is the OUT the dispatcher predicts with: the caller-known
// oracle count when the job carries one (the harness computes it once per
// instance anyway), the statistics-only EstimateOut otherwise. Never the
// measured OUT — predictions are made strictly from pre-run information.
func outEstimate(job Job) int64 {
	if job.CheckWant && job.Want >= 0 {
		return job.Want
	}
	return EstimateOut(job.In)
}
