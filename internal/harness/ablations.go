package harness

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/hypergraph"
	"repro/internal/mpc"
	"repro/internal/primitives"
	"repro/internal/relation"
	"repro/internal/stats"
)

// E2RHierClosedForm sweeps OUT on r-hierarchical instances and compares the
// measured RHier load to Thm 4's closed form (stats.Thm4). One task per hub
// degree.
func E2RHierClosedForm(s Scale) *Table {
	t := &Table{
		Title: "Theorem 4 — r-hierarchical output-optimal closed form",
		Note: fmt.Sprintf("p=%d; keyed-product instance with growing hub degree: OUT ≈ hub², so k* crosses from 1 to 2",
			s.P),
		Header: []string{"hubDeg", "IN", "OUT", "k*", "L(RHier)", "Thm4 bound", "L/bound"},
	}
	hubs := []int{16, 64, 256, 1024}
	s.addRows(t, len(hubs), func(task int) [][]any {
		hub := hubs[task]
		in := gen.TallFlatSkewed(hub, s.IN/4)
		out := core.NaiveCount(in)
		l := run("rhier", s.job(in, out)).Load
		b := stats.Thm4.Eval(stats.Vars{IN: in.IN(), OUT: out, P: s.P})
		return [][]any{{hub, in.IN(), out, stats.KStar(in.IN(), out), l, b, stats.Ratio(l, b)}}
	})
	return t
}

// E3AcyclicVsYannakakis compares the Section 5.1 algorithm with Yannakakis
// on longer chains, where the paper's √(OUT/IN)-factor gap should persist
// beyond line-3. One task per query family.
func E3AcyclicVsYannakakis(s Scale) *Table {
	t := &Table{
		Title:  "Section 5 — acyclic joins beyond line-3 (chain of 4, glued hard instances)",
		Header: []string{"query", "IN", "OUT", "L(Yann)", "L(Acyclic §5.1)", "Yann/Acyclic"},
	}
	s.addRows(t, 2, func(task int) [][]any {
		var name string
		var in *core.Instance
		var order []int
		if task == 0 {
			// A line-4 instance built by extending the Figure 3 hard
			// instance with a fourth relation fanning out of D.
			name = "line-4 hard"
			base := gen.YannakakisHard(s.IN/2, 4*s.IN)
			r4 := baseFanOut(base, 4)
			q := hypergraph.LineK(4)
			in = core.NewInstance(q, base.Rels[0], base.Rels[1], base.Rels[2], r4)
			order = []int{0, 1, 2, 3}
		} else {
			// Domain size ≈ size/4 keeps the expected per-value fanout at
			// 4, so OUT ≈ 64·size stays materializable by the oracle.
			name = "line-4 uniform"
			rng := mpc.NewChildRng(s.Seed, task)
			in = gen.LineKUniform(rng, 4, s.IN/4, max(s.IN/16, 2))
		}
		want := core.NaiveCount(in)
		yjob := s.job(in, want)
		yjob.Order = order
		ly := run("yannakakis", yjob).Load
		la := run("acyclic", s.job(in, want)).Load
		return [][]any{{name, in.IN(), want, ly, la,
			fmt.Sprintf("%.1fx", float64(ly)/float64(max(la, 1)))}}
	})
	return t
}

// baseFanOut builds R4(D, E) fanning every D value of the hard instance
// out to `fan` E values — keeping OUT large while the intermediate
// structure stays adversarial.
func baseFanOut(base *core.Instance, fan int) *relation.Relation {
	r := relation.New("R4", relation.NewSchema(4, 5))
	seen := map[relation.Value]bool{}
	pos := base.Rels[2].Schema.Pos(4)
	for _, tu := range base.Rels[2].Tuples {
		d := tu[pos]
		if seen[d] {
			continue
		}
		seen[d] = true
		for e := 0; e < fan; e++ {
			r.Add(d, relation.Value(e))
		}
	}
	return r
}

// E4Aggregate measures the Section 6 pipeline: COUNT(*) GROUP BY on a
// line-3 whose full join is enormous but whose aggregate output is tiny —
// LinearAggroYannakakis keeps the load linear. The aggregate and the
// full-join baseline run as two parallel tasks over the shared (read-only)
// instance.
func E4Aggregate(s Scale) *Table {
	t := &Table{
		Title: "Section 6 — free-connex join-aggregate (COUNT(*) GROUP BY B,C on line-3)",
		Note:  "|Q(R)| is huge; OUT = |Q_y(R)| is small; load must track " + stats.Thm9.String(),
		Header: []string{"IN", "|Q(R)|", "OUT_y", "L(aggregate)", "L(full join §5.1)",
			"linear IN/p", "L/linear"},
	}
	rng := mpc.NewChildRng(s.Seed, 0)
	in := gen.Line3Random(rng, s.IN, 32*s.IN)
	y := hypergraph.NewAttrSet(2, 3)

	// res[0] = {OUT_y, L(aggregate)}, res[1] = {|Q(R)|, L(full join)}.
	// Only the full-join task needs the naive oracle, so it runs there,
	// overlapped with the aggregate run.
	res := s.rows(2, func(task int) [][]any {
		if task == 0 {
			agg := run("aggregate", engine.Job{In: in, P: s.P, Seed: s.Seed, GroupBy: y})
			return [][]any{{int64(agg.Dist.Size()), agg.Load}}
		}
		fullOut := core.NaiveCount(in)
		lFull := run("acyclic", s.job(in, fullOut)).Load
		return [][]any{{fullOut, lFull}}
	})
	outY, lAgg := res[0][0].(int64), res[0][1].(int)
	fullOut, lFull := res[1][0].(int64), res[1][1].(int)
	lin := stats.Linear.Eval(stats.Vars{IN: in.IN(), P: s.P})
	t.Add(in.IN(), fullOut, outY, lAgg, lFull, lin, stats.Ratio(lAgg, lin))
	return t
}

// AblationTau sweeps the heavy/light threshold of the line-3 algorithm
// around the paper's balance point τ* = √(OUT/IN) (equations 4 and 5).
// The instance is built once; the sweep points run as parallel tasks over
// the shared (read-only) instance.
func AblationTau(s Scale) *Table {
	rng := mpc.NewChildRng(s.Seed, 0)
	in := gen.Line3Random(rng, s.IN, 16*s.IN)
	want := core.NaiveCount(in)
	tauStar := max(1, primitives.IsqrtInt(int(want)/max(in.IN(), 1)))
	t := &Table{
		Title: "Ablation — line-3 heavy/light threshold τ (eqs. 4–5 balance)",
		Note: fmt.Sprintf("p=%d IN=%d OUT=%d; paper's τ* = √(OUT/IN) = %d",
			s.P, in.IN(), want, tauStar),
		Header: []string{"τ", "L(Line3)", "vs τ*"},
	}
	var taus []int
	seen := map[int]bool{}
	for _, tau := range []int{1, tauStar / 4, tauStar, tauStar * 4, tauStar * 16} {
		if tau < 1 || seen[tau] {
			continue
		}
		seen[tau] = true
		taus = append(taus, tau)
	}
	s.addRows(t, len(taus), func(task int) [][]any {
		tau := taus[task]
		job := s.job(in, want)
		job.Tau = int64(tau)
		l := run("line3", job).Load
		mark := ""
		if tau == tauStar {
			mark = "← τ*"
		}
		return [][]any{{tau, l, mark}}
	})
	return t
}

// AblationGrid reruns the paper's Section 3.2 Case-2 example: the
// interleaved Cartesian grid versus a two-step approach that materializes
// the sub-join (represented by Yannakakis, which must shuffle the
// intermediate result). The two plans run as parallel tasks.
func AblationGrid(s Scale) *Table {
	p := s.P
	n := s.IN
	q := hypergraph.New(
		hypergraph.NewAttrSet(1),
		hypergraph.NewAttrSet(2, 3),
		hypergraph.NewAttrSet(3, 4),
	)
	r0 := relation.New("R0", relation.NewSchema(1))
	r0.Add(42)
	r1 := relation.New("R1", relation.NewSchema(2, 3))
	for i := 0; i < n; i++ {
		r1.Add(relation.Value(i), 0)
	}
	r2 := relation.New("R2", relation.NewSchema(3, 4))
	for i := 0; i < p; i++ {
		r2.Add(0, relation.Value(i))
	}
	in := core.NewInstance(q, r0, r1, r2)
	want := core.NaiveCount(in)
	red := core.NaiveSemiJoinReduce(in)
	li := core.LInstance(red, p)
	t := &Table{
		Title: "Ablation — §3.2 Case 2 grid vs two-step (|Q1|=1, |Q2|=p·IN)",
		Note: fmt.Sprintf("p=%d; L_instance=%d; a two-step plan must materialize Q2 (≈%d load)",
			p, li, n/p*p/p+primitives.IsqrtInt(n*p/p)),
		Header: []string{"algorithm", "IN", "OUT", "L", "L/L_inst"},
	}
	s.addRows(t, 2, func(task int) [][]any {
		if task == 0 {
			lg := run("rhier", s.job(in, want)).Load
			return [][]any{{"RHier grid (§3.2)", in.IN(), want, lg, stats.Ratio(lg, float64(li))}}
		}
		job := s.job(in, want)
		job.Order = []int{1, 2, 0}
		ly := run("yannakakis", job).Load
		return [][]any{{"two-step (materialize Q2)", in.IN(), want, ly, stats.Ratio(ly, float64(li))}}
	})
	return t
}
