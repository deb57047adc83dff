// Orders: a customer → order → lineitem pipeline (the classic line-3 shape
// the paper's introduction motivates). A few "enterprise" customers place
// most orders, and a few bulk orders carry most line items — exactly the
// skew that makes join order matter in MPC (Section 4.1).
//
// The example runs the MPC Yannakakis algorithm with both join orders and
// the paper's Section 4.2 decomposition through the engine (Job.Order is
// the only thing that changes between the first two runs), and prints the
// measured loads.
package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/hypergraph"
	"repro/internal/relation"
	"repro/internal/stats"
)

const (
	attrCustomer = 1 // A: customer id
	attrSegment  = 2 // B: market segment
	attrOrder    = 3 // C: order id
	attrItem     = 4 // D: line item id
)

func main() {
	customers := relation.New("customer", relation.NewSchema(attrCustomer, attrSegment))
	orders := relation.New("orders", relation.NewSchema(attrSegment, attrOrder))
	lineitems := relation.New("lineitem", relation.NewSchema(attrOrder, attrItem))

	// 40 segments; segment 0 is "enterprise": 2000 customers and most of
	// the order volume concentrates there.
	nextOrder := 0
	for s := 0; s < 40; s++ {
		ncust := 10
		norder := 20
		if s == 0 {
			ncust = 2000
			norder = 400
		}
		for i := 0; i < ncust; i++ {
			customers.Add(relation.Value(s*10000+i), relation.Value(s))
		}
		for o := 0; o < norder; o++ {
			orders.Add(relation.Value(s), relation.Value(nextOrder))
			// Bulk orders (every 50th) have 100 items; others 2.
			items := 2
			if nextOrder%50 == 0 {
				items = 100
			}
			for it := 0; it < items; it++ {
				lineitems.Add(relation.Value(nextOrder), relation.Value(nextOrder*1000+it))
			}
			nextOrder++
		}
	}

	in := core.NewInstance(hypergraph.Line3(), customers, orders, lineitems)
	want := core.NaiveCount(in)
	const p = 32
	fmt.Printf("customer ⋈ orders ⋈ lineitem: IN = %d, OUT = %d, p = %d\n\n", in.IN(), want, p)

	type result struct {
		name string
		load int
	}
	var results []result
	measure := func(algo, label string, order []int) {
		res, err := engine.RunNamed(algo, engine.Job{
			In: in, P: p, Seed: 1, Order: order, Want: want, CheckWant: true,
		})
		if err != nil {
			panic(err)
		}
		results = append(results, result{label, res.Load})
	}
	measure("yannakakis", "Yannakakis (customer⋈orders) first", []int{0, 1, 2})
	measure("yannakakis", "Yannakakis (orders⋈lineitem) first", []int{2, 1, 0})
	measure("line3", "paper §4.2 degree decomposition", nil)
	for _, r := range results {
		fmt.Printf("%-40s load L = %6d\n", r.name, r.load)
	}
	v := stats.Vars{IN: in.IN(), OUT: want, P: p}
	fmt.Printf("\nbounds: linear %s = %.0f, Yannakakis %s = %.0f, paper %s = %.0f\n",
		stats.Linear.Formula(), stats.Linear.Eval(v), stats.Yannakakis, stats.Yannakakis.Eval(v),
		stats.Thm7, stats.Thm7.Eval(v))
}
