package harness

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/hypergraph"
	"repro/internal/mpc"
	"repro/internal/runtime"
	"repro/internal/stats"
)

// Scale controls experiment sizes; DefaultScale matches the recorded
// tables (see DESIGN.md's per-experiment index).
type Scale struct {
	P    int // servers
	IN   int // base input size
	Seed uint64
}

// DefaultScale is used by the experiments command and benchmarks.
func DefaultScale() Scale { return Scale{P: 64, IN: 1 << 14, Seed: 2019} }

// Experiment is one regenerable table or figure: the name cmd/experiments
// selects it by, and the function that renders it at a scale.
type Experiment struct {
	Name   string
	Render func(Scale) string
}

// Experiments lists every experiment in the order "run everything" prints
// them: the one list the CLI's dispatch, its help text and the determinism
// test range over.
func Experiments() []Experiment {
	table := func(f func(Scale) *Table) func(Scale) string {
		return func(s Scale) string { return f(s).Render() }
	}
	fixed := func(f func() string) func(Scale) string {
		return func(Scale) string { return f() }
	}
	return []Experiment{
		{"fig1", table(Fig1Classification)},
		{"fig2", fixed(Fig2Forests)},
		{"fig3", table(Fig3JoinOrder)},
		{"fig4", table(Fig4Line3Sweep)},
		{"fig5", fixed(Fig5JoinTree)},
		{"fig6", table(Fig6TriangleSweep)},
		{"table1", table(Table1Loads)},
		{"e2", table(E2RHierClosedForm)},
		{"e3", table(E3AcyclicVsYannakakis)},
		{"e4", table(E4Aggregate)},
		{"e5", table(E5InstanceGap)},
		{"tau", table(AblationTau)},
		{"grid", table(AblationGrid)},
	}
}

// rows runs n independent tasks with runtime.Fork and returns every task's
// rows flattened in task order, so the assembled table is byte-identical
// for every runtime.Parallelism() width. Tasks must not share mutable
// state; each builds its instances from mpc.ChildSeed(s.Seed, task) —
// never from shared state — when randomness is needed.
func (s Scale) rows(n int, fn func(task int) [][]any) [][]any {
	chunks := make([][][]any, n)
	runtime.Fork(n, func(task int) { chunks[task] = fn(task) })
	var out [][]any
	for _, ch := range chunks {
		out = append(out, ch...)
	}
	return out
}

// addRows runs n tasks through rows and appends their rows to t in
// task order.
func (s Scale) addRows(t *Table, n int, fn func(task int) [][]any) {
	for _, r := range s.rows(n, fn) {
		t.Add(r...)
	}
}

// run executes the named engine algorithm and returns the measured Result;
// every engine failure — including an output count disagreeing with the
// oracle — is a harness bug and panics.
func run(algo string, job engine.Job) engine.Result {
	res, err := engine.RunNamed(algo, job)
	if err != nil {
		panic(fmt.Sprintf("harness: %v", err))
	}
	return res
}

// job returns the scale's base job for one instance: the experiments all
// run on s.P servers with s.Seed, verifying against the shared oracle
// count (want < 0 skips verification, as for algorithms whose emitted
// cardinality is not the full join).
func (s Scale) job(in *core.Instance, want int64) engine.Job {
	return engine.Job{In: in, P: s.P, Seed: s.Seed, Want: want, CheckWant: want >= 0}
}

// Fig1 cost-dispatch cell: every catalog query gets a small uniform
// instance (fig1N tuples per relation over a fig1Dom-value domain — small
// enough that the naive oracle on the 3-way Cartesian product stays
// cheap), the engine dispatches on predicted load with the oracle count as
// the OUT estimate, and a run whose measured load exceeds mispredSlack ×
// prediction is flagged MISPRED in the table.
const (
	fig1N        = 64
	fig1Dom      = 6
	mispredSlack = 8.0
)

// dispatchFlag renders the predicted-vs-actual verdict for one run.
func dispatchFlag(load int, predicted float64) string {
	if stats.Ratio(load, predicted) > mispredSlack {
		return "MISPRED"
	}
	return "ok"
}

// Fig1Classification regenerates Figure 1: the classification of the query
// catalog with witnesses for each strict inclusion, the algorithm the
// engine routes each class to structurally, and — on a uniform instance
// per query — the cost-based pick with its predicted vs measured load.
func Fig1Classification(s Scale) *Table {
	t := &Table{
		Title: "Figure 1 — classification of joins (tall-flat ⊂ hierarchical ⊂ r-hierarchical ⊂ acyclic)",
		Note: fmt.Sprintf("p=%d; cost pick = argmin predicted load on a uniform instance (n=%d, dom=%d), OUT from the naive oracle; MISPRED = L > %.0f·pred",
			s.P, fig1N, fig1Dom, mispredSlack),
		Header: []string{"query", "acyclic", "r-hier", "hier", "tall-flat", "class", "engine",
			"cost pick", "pred L", "L", "L/pred", "dispatch"},
	}
	cat := hypergraph.Catalog()
	s.addRows(t, len(cat), func(task int) [][]any {
		e := cat[task]
		in := gen.ForQuery(mpc.NewChildRng(s.Seed, task), e.Q, fig1N, fig1Dom)
		res, err := engine.AutoRun(s.job(in, core.NaiveCount(in)))
		if err != nil {
			panic(fmt.Sprintf("harness: fig1 %s: %v", e.Name, err))
		}
		return [][]any{{e.Name,
			e.Q.IsAcyclic(),
			e.Q.IsAcyclic() && e.Q.IsRHierarchical(),
			e.Q.IsHierarchical(),
			e.Q.IsTallFlat(),
			e.Q.Classify().String(),
			engine.Route(e.Q),
			res.Algorithm,
			res.Predicted,
			res.Load,
			stats.Ratio(res.Load, res.Predicted),
			dispatchFlag(res.Load, res.Predicted)}}
	})
	return t
}

// Fig2Forests renders the attribute forests of the paper's Q1 and Q2.
func Fig2Forests() string {
	out := "== Figure 2 — attribute forests ==\n"
	out += "Q1 (tall-flat):\n" + hypergraph.Q1TallFlat().AttributeForest().String()
	out += "Q2 (hierarchical):\n" + hypergraph.Q2Hierarchical().AttributeForest().String()
	return out
}

// Fig3JoinOrder regenerates the Figure 3 / Section 4.1 experiment: join
// order has asymptotic consequences in MPC, and on the doubled instance no
// order is good while the Section 4.2 decomposition is. One task per
// instance: the naive oracle dominates the cost, so each instance is
// generated and counted once and its four algorithms run inside the task.
func Fig3JoinOrder(s Scale) *Table {
	t := &Table{
		Title: "Figure 3 — join order in the MPC Yannakakis algorithm (line-3)",
		Note: fmt.Sprintf("p=%d; hard instance with OUT=8·IN; load = max tuples received by a server in a round",
			s.P),
		Header: []string{"instance", "algorithm", "IN", "OUT", "pred L", "load L", "L/pred", "L/(IN/p)", "bound tracked"},
	}
	algos := []struct {
		algo, label, bound string
		order              []int
	}{
		{"yannakakis", "Yannakakis (R1⋈R2)⋈R3", stats.Yannakakis.String(), []int{0, 1, 2}},
		{"yannakakis", "Yannakakis R1⋈(R2⋈R3)", stats.BinaryJoin.String() + " or " + stats.Yannakakis.String(), []int{2, 1, 0}},
		{"line3", "Line3 (§4.2)", stats.Thm7.String(), nil},
		{"acyclic", "AcyclicJoin (§5.1)", stats.Thm7.String(), nil},
	}
	families := []struct{ family, label string }{
		{"hard", "one-sided"},
		{"doubled", "doubled"},
	}
	s.addRows(t, len(families), func(task int) [][]any {
		f := families[task]
		in, err := gen.Build(f.family, nil, s.IN, 8*s.IN)
		if err != nil {
			panic(err)
		}
		want := core.NaiveCount(in)
		inSize := in.IN()
		rows := make([][]any, 0, len(algos))
		for _, a := range algos {
			job := s.job(in, want)
			job.Order = a.order
			res := run(a.algo, job)
			rows = append(rows, []any{f.label, a.label, inSize, want, res.Predicted, res.Load,
				stats.Ratio(res.Load, res.Predicted),
				stats.Ratio(res.Load, stats.Linear.Eval(stats.Vars{IN: inSize, P: s.P})), a.bound})
		}
		return rows
	})
	return t
}

// Fig4Line3Sweep regenerates the Figure 4 experiment: the line-3 load as a
// function of OUT on the random lower-bound instance, against the paper's
// lower bound and the Yannakakis baseline. The three regimes of Section 4.3
// (OUT ≤ IN, IN < OUT ≤ p·IN, OUT > p·IN) are visible as the points where
// the winner changes. One task per sweep point, each on its own RNG stream.
func Fig4Line3Sweep(s Scale) *Table {
	t := &Table{
		Title: "Figure 4 — line-3 join on the random hard instance, OUT sweep",
		Note: fmt.Sprintf("p=%d, IN≈%d; LB = %v",
			s.P, s.IN, stats.Thm6),
		Header: []string{"OUT/IN", "IN", "OUT", "L(Yann)", "L(Line3)", "L(Acyc §5)", "L(WC " + stats.WorstCaseLine3.Formula() + ")", "LB", "Line3/LB", "regime"},
	}
	factors := []int{0, 1, 4, 16, 64, 256}
	s.addRows(t, len(factors), func(task int) [][]any {
		f := factors[task]
		rng := mpc.NewChildRng(s.Seed, task)
		out := s.IN * f
		if f == 0 {
			out = s.IN / 4
		}
		in, err := gen.Build("random", rng, s.IN, out)
		if err != nil {
			panic(err)
		}
		want := core.NaiveCount(in)
		inSize := in.IN()
		ly := run("yannakakis", s.job(in, want)).Load
		l3 := run("line3", s.job(in, want)).Load
		la := run("acyclic", s.job(in, want)).Load
		lw := run("line3wc", s.job(in, want)).Load
		lb := stats.Thm6.Eval(stats.Vars{IN: inSize, OUT: want, P: s.P})
		regime := "OUT≤IN: " + stats.Linear.Formula()
		switch {
		case want > int64(s.P)*int64(inSize):
			regime = "OUT>p·IN: " + stats.WorstCaseLine3.Formula()
		case want > int64(inSize):
			regime = "IN<OUT≤p·IN: " + stats.Thm7.Formula()
		}
		return [][]any{{fmt.Sprintf("%d", f), inSize, want, ly, l3, la, lw, lb,
			stats.Ratio(l3, lb), regime}}
	})
	return t
}

// Fig5JoinTree prints the join tree and the e0 selection for the Figure 5
// example query.
func Fig5JoinTree() string {
	q := hypergraph.Fig5Example()
	tree, _ := q.GYO()
	out := "== Figure 5 — join tree of the example acyclic query ==\n"
	var walk func(u, d int)
	names := []string{"e0=ABDGH'", "e1=ABC", "e2=BD", "e3=B", "e4=ADE", "e5=DF", "e6=HH'"}
	walk = func(u, d int) {
		for i := 0; i < d; i++ {
			out += "  "
		}
		out += names[u] + "\n"
		for _, c := range tree.Children[u] {
			walk(c, d+1)
		}
	}
	walk(tree.Root, 0)
	return out
}

// Fig6TriangleSweep regenerates the Section 7 experiment: the triangle
// join's measured load against Thm 11's output-sensitive lower bound, plus
// the acyclic line-3 load at the same IN and OUT to exhibit the
// ≥ √(OUT/IN) separation.
func Fig6TriangleSweep(s Scale) *Table {
	t := &Table{
		Title: "Figure 6 / Theorem 11 — triangle join, OUT sweep",
		Note: fmt.Sprintf("p=%d, IN≈%d; triangle LB = %v",
			s.P, s.IN, stats.Thm11),
		Header: []string{"OUT/IN", "IN", "OUT", "L(HyperCube△)", "LB(△)", "L/LB", "L(Line3 same IN,OUT)", "separation"},
	}
	factors := []int{1, 2, 4, 8, 16}
	s.addRows(t, len(factors), func(task int) [][]any {
		f := factors[task]
		rng := mpc.NewChildRng(s.Seed, task)
		in, err := gen.Build("triangle", rng, s.IN, s.IN*f)
		if err != nil {
			panic(err)
		}
		want := core.NaiveCount(in)
		inSize := in.IN()
		lt := run("triangle", s.job(in, want)).Load
		lb := stats.Thm11.Eval(stats.Vars{IN: inSize, OUT: want, P: s.P})
		// An acyclic join with the same IN/OUT for the separation column.
		l3in, err := gen.Build("random", rng, inSize, int(want))
		if err != nil {
			panic(err)
		}
		l3want := core.NaiveCount(l3in)
		l3 := run("line3", s.job(l3in, l3want)).Load
		return [][]any{{fmt.Sprintf("%d", f), inSize, want, lt, lb, stats.Ratio(lt, lb), l3,
			fmt.Sprintf("%.1fx", float64(lt)/float64(max(l3, 1)))}}
	})
	return t
}

// Table1Loads regenerates Table 1 as measurements: each join class's
// algorithms on a representative skewed instance, with the bound each is
// supposed to track. One task per join class.
func Table1Loads(s Scale) *Table {
	t := &Table{
		Title: "Table 1 — measured load per join class (skewed representative instances)",
		Note: fmt.Sprintf("p=%d; L_inst = instance lower bound (eq. 2); bounds per paper",
			s.P),
		Header: []string{"class", "instance", "algorithm", "IN", "OUT", "L", "bound", "L/bound"},
	}
	// Each run is measured against its own bound row; the r-hierarchical
	// classes track Thm 3, whose L_instance term is evaluated on the
	// instance.
	type algoRun struct {
		label, algo string
		bound       stats.BoundID
		reduce      bool
	}
	family := func(name string, out int) func(task int) (*core.Instance, error) {
		return func(task int) (*core.Instance, error) {
			return gen.Build(name, mpc.NewChildRng(s.Seed, task), s.IN, out)
		}
	}
	binhcRHier := []algoRun{{"BinHC (1 round)", "binhc", stats.Thm3, false}, {"RHier (§3.2)", "rhier", stats.Thm3, false}}
	sections := []struct {
		class, inst string
		build       func(task int) (*core.Instance, error)
		runs        []algoRun
	}{
		// Tall-flat: keyed product with one hub.
		{"tall-flat", "hub keyed product", family("tallflat", 0), binhcRHier},
		// r-hierarchical without dangling tuples.
		{"r-hier (no dangling)", "hub star", family("rhier", 0), binhcRHier},
		// Hierarchical with dangling tuples (the one-round barrier, [26]):
		// a fake hub whose degree product looks like fakeDeg² but whose true
		// output is zero — degree statistics cannot see it, a semi-join can.
		{"hier (dangling)", "Q2 + fake hub", func(int) (*core.Instance, error) { return gen.Q2FakeHub(s.IN/8, s.IN/2), nil },
			[]algoRun{binhcRHier[0], {"reduce+BinHC", "binhc", stats.Thm3, true}, binhcRHier[1]}},
		// Acyclic non-r-hierarchical: line-3 at OUT = 8·IN.
		{"acyclic", "random line-3", family("random", 8*s.IN), []algoRun{{"Yannakakis", "yannakakis", stats.Yannakakis, false},
			{"Line3 (§4.2)", "line3", stats.Thm7, false}, {"AcyclicJoin (§5.1)", "acyclic", stats.Thm7, false}}},
		{"triangle (cyclic)", "random triangle", family("triangle", 4*s.IN), []algoRun{{"HyperCube△ [24]", "triangle", stats.Triangle, false}}},
	}
	s.addRows(t, len(sections), func(task int) [][]any {
		sec := sections[task]
		in, err := sec.build(task)
		if err != nil {
			panic(err)
		}
		out := core.NaiveCount(in)
		v := stats.Vars{IN: in.IN(), OUT: out, P: s.P}
		if sec.runs[0].bound == stats.Thm3 {
			v.LInstance = core.LInstance(core.NaiveSemiJoinReduce(in), s.P)
		}
		rows := make([][]any, len(sec.runs))
		for i, r := range sec.runs {
			job := s.job(in, out)
			job.Reduce = r.reduce
			l, b := run(r.algo, job).Load, r.bound.Eval(v)
			rows[i] = []any{sec.class, sec.inst, r.label, in.IN(), out, l, b, stats.Ratio(l, b)}
		}
		return rows
	})
	return t
}

// E5InstanceGap demonstrates Corollaries 2/3: an instance with
// L_instance = O(IN/p) on which every algorithm must pay Ω̃ of [19,24]'s
// worst-case line-3 bound (stats.WorstCaseLine3) — the
// impossibility of instance optimality beyond r-hierarchical joins.
// One task per server count.
func E5InstanceGap(s Scale) *Table {
	t := &Table{
		Title: "Corollary 2/3 — instance-optimality gap on line-3 (OUT = p·IN)",
		Note:  "L_instance = O(IN/p) yet every algorithm pays Ω̃(" + stats.WorstCaseLine3.Formula() + ")",
		Header: []string{"p", "IN", "OUT", "L_inst(eq.2)", stats.WorstCaseLine3.Formula(), "L(Line3)", "L(Yann)",
			"L(Line3)/L_inst"},
	}
	ps := []int{16, 64, 256}
	s.addRows(t, len(ps), func(task int) [][]any {
		p := ps[task]
		rng := mpc.NewChildRng(s.Seed, task)
		// OUT = p·IN grows with p; scale IN down so the oracle's full
		// materialization stays bounded.
		inSize := s.IN * 16 / p
		in, err := gen.Build("random", rng, inSize, p*inSize)
		if err != nil {
			panic(err)
		}
		want := core.NaiveCount(in)
		red := core.NaiveSemiJoinReduce(in)
		li := core.LInstance(red, p)
		job := engine.Job{In: in, P: p, Seed: s.Seed, Want: want, CheckWant: true}
		l3 := run("line3", job).Load
		ly := run("yannakakis", job).Load
		return [][]any{{p, in.IN(), want, li, stats.WorstCaseLine3.Eval(stats.Vars{IN: in.IN(), P: p}), l3, ly,
			stats.Ratio(l3, float64(li))}}
	})
	return t
}
