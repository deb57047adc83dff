// Hierarchy: a hierarchical query from the probabilistic-database setting
// the paper cites (Section 1.4): users(U) ⋈ logins(U,D) ⋈ purchases(U,P).
// The attribute forest is U → {D, P}; per-user, logins × purchases is a
// keyed product, so a few power users dominate the output — the skew that
// separates instance classes in MPC (Section 1.3).
//
// The example compares the paper's instance-optimal §3.2 algorithm against
// one-round BinHC and Yannakakis, relative to the per-instance lower bound
// L_instance(p, R) of equation (2) — all through the engine registry.
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
	q := hypergraph.New(
		hypergraph.NewAttrSet(1),    // users(U)
		hypergraph.NewAttrSet(1, 2), // logins(U, D)
		hypergraph.NewAttrSet(1, 3), // purchases(U, P)
	)
	fmt.Printf("users ⋈ logins ⋈ purchases is %s; engine dispatch: %s\n",
		q.Classify(), engine.Route(q))

	users := relation.New("users", relation.NewSchema(1))
	logins := relation.New("logins", relation.NewSchema(1, 2))
	purchases := relation.New("purchases", relation.NewSchema(1, 3))
	// 3 power users: 300 logins and 300 purchases each (90 000 output rows
	// per user); 3000 regular users with 1 login and 1 purchase.
	id := 0
	addUser := func(u, nLogin, nPurch int) {
		users.Add(relation.Value(u))
		for i := 0; i < nLogin; i++ {
			logins.Add(relation.Value(u), relation.Value(id))
			id++
		}
		for i := 0; i < nPurch; i++ {
			purchases.Add(relation.Value(u), relation.Value(id))
			id++
		}
	}
	for u := 0; u < 3; u++ {
		addUser(u, 300, 300)
	}
	for u := 3; u < 3003; u++ {
		addUser(u, 1, 1)
	}
	in := core.NewInstance(q, users, logins, purchases)
	want := core.NaiveCount(in)
	const p = 32

	fmt.Printf("IN = %d, OUT = %d, p = %d\n", in.IN(), want, p)
	red := core.NaiveSemiJoinReduce(in)
	li := core.LInstance(red, p)
	bound := stats.Thm3.Eval(stats.Vars{IN: in.IN(), P: p, LInstance: li})
	fmt.Printf("per-instance bound %s = %.0f (L_instance = %d)\n\n", stats.Thm3, bound, li)

	measure := func(algo, label string) {
		res, err := engine.RunNamed(algo, engine.Job{
			In: in, P: p, Seed: 1, Want: want, CheckWant: true,
		})
		if err != nil {
			panic(err)
		}
		fmt.Printf("%-28s load L = %6d  (%.1f× the instance bound)\n",
			label, res.Load, stats.Ratio(res.Load, bound))
	}
	measure("rhier", "RHier (§3.2, inst-optimal)")
	measure("binhc", "BinHC (one round)")
	measure("yannakakis", "Yannakakis")
	fmt.Printf("\n(Yannakakis must shuffle Θ(OUT) intermediate tuples: OUT/p = %d)\n", want/int64(p))
}
