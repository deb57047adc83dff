// Aggregation: a free-connex join-aggregate query (Section 6).
//
// COUNT(*) GROUP BY (segment, order): the full join customer ⋈ orders ⋈
// lineitem is large, but the aggregate output has one row per (B, C) group.
// LinearAggroYannakakis eliminates the non-output attributes at linear
// load, so the measured load is far below the full join's.
//
// The same pipeline also runs a MAX-score aggregation by overriding the
// job's semiring to the tropical ring — the engine re-rings the instance
// without mutating it.
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
	r1 := relation.New("customer", relation.NewSchema(1, 2)) // (cust, segment)
	r2 := relation.New("orders", relation.NewSchema(2, 3))   // (segment, order)
	r3 := relation.New("lineitem", relation.NewSchema(3, 4)) // (order, item)
	for i := 0; i < 3000; i++ {
		r1.Add(relation.Value(i), relation.Value(i%20))
		r2.Add(relation.Value(i%20), relation.Value(i%400))
		r3.Add(relation.Value(i%400), relation.Value(i))
	}
	in := core.NewInstance(hypergraph.Line3(), r1.Dedup(), r2.Dedup(), r3.Dedup())

	y := hypergraph.NewAttrSet(2, 3) // GROUP BY (segment, order)
	w := hypergraph.WithOutput{Q: in.Q, Y: y}
	fmt.Printf("query: line-3, output attrs y = {B, C}\n")
	fmt.Printf("free-connex: %v, out-hierarchical: %v\n\n", w.IsFreeConnex(), w.IsOutHierarchical())

	const p = 32
	fullJoin := core.NaiveCount(in)

	// COUNT(*) GROUP BY under the counting semiring.
	res, err := engine.RunNamed("aggregate", engine.Job{In: in, P: p, Seed: 1, GroupBy: y})
	if err != nil {
		panic(err)
	}
	groups := res.Dist
	var total int64
	for _, it := range groups.All() {
		total += it.A
	}
	fmt.Printf("full join |Q(R)| = %d; aggregate output = %d groups (sum of counts %d)\n",
		fullJoin, groups.Size(), total)
	v := stats.Vars{IN: in.IN(), OUT: fullJoin, P: p}
	fmt.Printf("aggregate load L = %d vs linear %s = %.0f vs full-join Yannakakis bound %.0f\n",
		res.Load, stats.Linear.Formula(), stats.Linear.Eval(v), stats.Yannakakis.Eval(v))
	if total != fullJoin {
		panic("aggregate counts do not add up to the full join size")
	}

	// MAX aggregation: annotate lineitems with a score; the tropical
	// semiring computes max over join results of summed scores. Job.Ring
	// overrides the instance's semiring for this run only.
	r3s := relation.New("lineitem", relation.NewSchema(3, 4))
	for i, t := range r3.Tuples {
		r3s.AddAnnotated(int64(i%97), t[0], t[1])
	}
	inMax := core.NewInstance(hypergraph.Line3(), r1, r2, r3s)
	maxRes, err := engine.RunNamed("aggregate", engine.Job{
		In: inMax, P: p, Seed: 1, GroupBy: y, Ring: &relation.MaxPlusRing,
	})
	if err != nil {
		panic(err)
	}
	best := relation.MaxPlusRing.Zero
	got := map[[2]relation.Value]int64{}
	for _, it := range maxRes.Dist.All() {
		got[[2]relation.Value{it.T[0], it.T[1]}] = it.A
		best = relation.MaxPlusRing.Add(best, it.A)
	}
	fmt.Printf("\nMAX-score per group via (max,+) semiring: %d groups, best score %d, load %d\n",
		maxRes.Dist.Size(), best, maxRes.Load)

	// The naive oracle under the same ring: the max over each group's join
	// results. customer and orders carry no scores, so they add the ring's
	// One (0) to every result, not 1.
	oracleIn := *inMax
	oracleIn.Ring = relation.MaxPlusRing
	full := core.Naive(&oracleIn)
	pos := full.Schema.Positions(y.Schema())
	want := map[[2]relation.Value]int64{}
	for i, t := range full.Tuples {
		k := [2]relation.Value{t[pos[0]], t[pos[1]]}
		if a, ok := want[k]; ok {
			want[k] = relation.MaxPlusRing.Add(a, full.Annot(i))
		} else {
			want[k] = full.Annot(i)
		}
	}
	if len(got) != len(want) {
		panic(fmt.Sprintf("MAX aggregate has %d groups, the oracle %d", len(got), len(want)))
	}
	for k, w := range want {
		if got[k] != w {
			panic(fmt.Sprintf("MAX aggregate of group %v is %d, the oracle says %d", k, got[k], w))
		}
	}
}
