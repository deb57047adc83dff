// Quickstart: build a query, generate data, and let the engine do the rest.
//
// The engine API is three lines: wrap the data in a Job, call
// engine.AutoRun, read the Result. Classification-driven dispatch picks the
// paper's class-optimal algorithm (here: the §4.2 line-3 decomposition),
// runs it on a simulated MPC cluster, and verifies the output count against
// the sequential oracle.
package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/hypergraph"
	"repro/internal/relation"
	"repro/internal/stats"
)

func main() {
	// A query is a hypergraph: attributes are vertices, relations are
	// hyperedges. This is the paper's line-3 join R1(A,B)⋈R2(B,C)⋈R3(C,D).
	q := hypergraph.Line3()
	fmt.Printf("query %v is %s, engine routes it to %q\n", q, q.Classify(), engine.Route(q))

	// Relations are sets of tuples over a schema.
	r1 := relation.New("R1", relation.NewSchema(1, 2))
	r2 := relation.New("R2", relation.NewSchema(2, 3))
	r3 := relation.New("R3", relation.NewSchema(3, 4))
	for i := 0; i < 1000; i++ {
		r1.Add(relation.Value(i), relation.Value(i%50))      // A,B
		r2.Add(relation.Value(i%50), relation.Value(i%200))  // B,C
		r3.Add(relation.Value(i%200), relation.Value(i%333)) // C,D
	}

	// The whole engine API: instance in, measurement out.
	in := core.NewInstance(q, r1.Dedup(), r2.Dedup(), r3.Dedup())
	res, err := engine.AutoRun(engine.Job{In: in, P: 16, Seed: 1, CheckOracle: true})
	if err != nil {
		panic(err)
	}

	fmt.Printf("IN = %d tuples, OUT = %d results, p = 16 servers\n", in.IN(), res.OUT)
	fmt.Printf("%s measured load L = %d in %d rounds (tracks %s)\n",
		res.Algorithm, res.Load, res.Rounds, res.Bound)
	fmt.Printf("paper bound %s = %.0f\n", stats.AcyclicFormula, stats.Acyclic(in.IN(), res.OUT, 16))
	fmt.Printf("Yannakakis would pay up to %s = %.0f\n", stats.YannakakisFormula, stats.Yannakakis(in.IN(), res.OUT, 16))
	if res.Verified {
		fmt.Println("verified against the sequential oracle ✓")
	}
}
