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
		res, err := engine.AutoRun(s.job(in, oracleCount(in)))
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
		algo  string
		label string
		bound string
		order []int
	}{
		{"yannakakis", "Yannakakis (R1⋈R2)⋈R3", "OUT/p", []int{0, 1, 2}},
		{"yannakakis", "Yannakakis R1⋈(R2⋈R3)", "IN/p+√(OUT/p) or OUT/p", []int{2, 1, 0}},
		{"line3", "Line3 (§4.2)", "IN/p+√(IN·OUT/p)", nil},
		{"acyclic", "AcyclicJoin (§5.1)", "IN/p+√(IN·OUT/p)", nil},
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
		want := oracleCount(in)
		inSize := in.IN()
		rows := make([][]any, 0, len(algos))
		for _, a := range algos {
			job := s.job(in, want)
			job.Order = a.order
			res := run(a.algo, job)
			rows = append(rows, []any{f.label, a.label, inSize, want, res.Predicted, res.Load,
				stats.Ratio(res.Load, res.Predicted),
				stats.Ratio(res.Load, stats.Linear(inSize, s.P)), a.bound})
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
		Note: fmt.Sprintf("p=%d, IN≈%d; LB = Ω(min{√(IN·OUT/(p·log IN)), IN/√p}) (Thm 6)",
			s.P, s.IN),
		Header: []string{"OUT/IN", "IN", "OUT", "L(Yann)", "L(Line3)", "L(Acyc §5)", "L(WC IN/√p)", "LB", "Line3/LB", "regime"},
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
		want := oracleCount(in)
		inSize := in.IN()
		ly := run("yannakakis", s.job(in, want)).Load
		l3 := run("line3", s.job(in, want)).Load
		la := run("acyclic", s.job(in, want)).Load
		lw := run("line3wc", s.job(in, want)).Load
		lb := stats.Line3Lower(inSize, want, s.P)
		regime := "OUT≤IN: linear"
		switch {
		case want > int64(s.P)*int64(inSize):
			regime = "OUT>p·IN: IN/√p"
		case want > int64(inSize):
			regime = "IN<OUT≤p·IN: √(IN·OUT/p)"
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
// join's measured load against the output-sensitive lower bound
// Ω̃(min{IN/p + OUT/p, IN/p^{2/3}}), plus the acyclic line-3 load at the
// same IN and OUT to exhibit the ≥ √(OUT/IN) separation.
func Fig6TriangleSweep(s Scale) *Table {
	t := &Table{
		Title: "Figure 6 / Theorem 11 — triangle join, OUT sweep",
		Note: fmt.Sprintf("p=%d, IN≈%d; triangle LB = Ω̃(min{IN/p+OUT/p, IN/p^(2/3)})",
			s.P, s.IN),
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
		want := oracleCount(in)
		inSize := in.IN()
		lt := run("triangle", s.job(in, want)).Load
		lb := stats.TriangleLower(inSize, want, s.P)
		// An acyclic join with the same IN/OUT for the separation column.
		l3in, err := gen.Build("random", rng, inSize, int(want))
		if err != nil {
			panic(err)
		}
		l3want := oracleCount(l3in)
		l3 := run("line3", s.job(l3in, l3want)).Load
		return [][]any{{fmt.Sprintf("%d", f), inSize, want, lt, lb, stats.Ratio(lt, lb), l3,
			fmt.Sprintf("%.1fx", float64(lt)/float64(maxInt(l3, 1)))}}
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
	p := s.P
	instBound := func(in *core.Instance) float64 {
		red := core.NaiveSemiJoinReduce(in)
		return float64(in.IN())/float64(p) + float64(core.LInstance(red, p))
	}
	sections := []func(task int) [][]any{
		// Tall-flat: keyed product with one hub.
		func(task int) [][]any {
			tf, err := gen.Build("tallflat", nil, s.IN, 0)
			if err != nil {
				panic(err)
			}
			tfOut := oracleCount(tf)
			tfB := instBound(tf)
			l1 := run("binhc", s.job(tf, tfOut)).Load
			l2 := run("rhier", s.job(tf, tfOut)).Load
			return [][]any{
				{"tall-flat", "hub keyed product", "BinHC (1 round)", tf.IN(), tfOut, l1, tfB, stats.Ratio(l1, tfB)},
				{"tall-flat", "hub keyed product", "RHier (§3.2)", tf.IN(), tfOut, l2, tfB, stats.Ratio(l2, tfB)},
			}
		},
		// r-hierarchical without dangling tuples.
		func(task int) [][]any {
			rng := mpc.NewChildRng(s.Seed, task)
			rh, err := gen.Build("rhier", rng, s.IN, 0)
			if err != nil {
				panic(err)
			}
			rhOut := oracleCount(rh)
			rhB := instBound(rh)
			l1 := run("binhc", s.job(rh, rhOut)).Load
			l2 := run("rhier", s.job(rh, rhOut)).Load
			return [][]any{
				{"r-hier (no dangling)", "hub star", "BinHC (1 round)", rh.IN(), rhOut, l1, rhB, stats.Ratio(l1, rhB)},
				{"r-hier (no dangling)", "hub star", "RHier (§3.2)", rh.IN(), rhOut, l2, rhB, stats.Ratio(l2, rhB)},
			}
		},
		// Hierarchical with dangling tuples (the one-round barrier, [26]):
		// a fake hub whose degree product looks like fakeDeg² but whose true
		// output is zero — degree statistics cannot see it, a semi-join can.
		func(task int) [][]any {
			rhd := gen.Q2FakeHub(s.IN/8, s.IN/2)
			rhdOut := oracleCount(rhd)
			rhdB := instBound(rhd)
			l1 := run("binhc", s.job(rhd, rhdOut)).Load
			reduced := s.job(rhd, rhdOut)
			reduced.Reduce = true
			l2 := run("binhc", reduced).Load
			l3 := run("rhier", s.job(rhd, rhdOut)).Load
			return [][]any{
				{"hier (dangling)", "Q2 + fake hub", "BinHC (1 round)", rhd.IN(), rhdOut, l1, rhdB, stats.Ratio(l1, rhdB)},
				{"hier (dangling)", "Q2 + fake hub", "reduce+BinHC", rhd.IN(), rhdOut, l2, rhdB, stats.Ratio(l2, rhdB)},
				{"hier (dangling)", "Q2 + fake hub", "RHier (§3.2)", rhd.IN(), rhdOut, l3, rhdB, stats.Ratio(l3, rhdB)},
			}
		},
		// Acyclic non-r-hierarchical: line-3 at OUT = 8·IN.
		func(task int) [][]any {
			rng := mpc.NewChildRng(s.Seed, task)
			l3in, err := gen.Build("random", rng, s.IN, 8*s.IN)
			if err != nil {
				panic(err)
			}
			l3Out := oracleCount(l3in)
			l3B := stats.Acyclic(l3in.IN(), l3Out, p)
			yB := stats.Yannakakis(l3in.IN(), l3Out, p)
			l1 := run("yannakakis", s.job(l3in, l3Out)).Load
			l2 := run("line3", s.job(l3in, l3Out)).Load
			l3l := run("acyclic", s.job(l3in, l3Out)).Load
			return [][]any{
				{"acyclic", "random line-3", "Yannakakis", l3in.IN(), l3Out, l1, yB, stats.Ratio(l1, yB)},
				{"acyclic", "random line-3", "Line3 (§4.2)", l3in.IN(), l3Out, l2, l3B, stats.Ratio(l2, l3B)},
				{"acyclic", "random line-3", "AcyclicJoin (§5.1)", l3in.IN(), l3Out, l3l, l3B, stats.Ratio(l3l, l3B)},
			}
		},
		// Triangle.
		func(task int) [][]any {
			rng := mpc.NewChildRng(s.Seed, task)
			tr, err := gen.Build("triangle", rng, s.IN, 4*s.IN)
			if err != nil {
				panic(err)
			}
			trOut := oracleCount(tr)
			trB := stats.TriangleWorstCase(tr.IN(), p)
			l := run("triangle", s.job(tr, trOut)).Load
			return [][]any{
				{"triangle (cyclic)", "random triangle", "HyperCube△ [24]", tr.IN(), trOut, l, trB, stats.Ratio(l, trB)},
			}
		},
	}
	s.addRows(t, len(sections), func(task int) [][]any {
		return sections[task](task)
	})
	return t
}

// E5InstanceGap demonstrates Corollaries 2/3: an instance with
// L_instance = O(IN/p) on which every algorithm must pay Ω̃(IN/√p) — the
// impossibility of instance optimality beyond r-hierarchical joins.
// One task per server count.
func E5InstanceGap(s Scale) *Table {
	t := &Table{
		Title: "Corollary 2/3 — instance-optimality gap on line-3 (OUT = p·IN)",
		Note:  "L_instance = O(IN/p) yet every algorithm pays Ω̃(IN/√p)",
		Header: []string{"p", "IN", "OUT", "L_inst(eq.2)", "IN/√p", "L(Line3)", "L(Yann)",
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
		want := oracleCount(in)
		red := core.NaiveSemiJoinReduce(in)
		li := core.LInstance(red, p)
		job := engine.Job{In: in, P: p, Seed: s.Seed, Want: want, CheckWant: true}
		l3 := run("line3", job).Load
		ly := run("yannakakis", job).Load
		return [][]any{{p, in.IN(), want, li, stats.WorstCaseLine(in.IN(), p), l3, ly,
			stats.Ratio(l3, float64(li))}}
	})
	return t
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
