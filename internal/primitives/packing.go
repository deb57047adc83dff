package primitives

import "repro/internal/mpc"

// ParallelPacking groups items with sizes 0 < size_i ≤ capacity into groups
// Y_1 … Y_m such that Σ_{i∈Y_j} size_i ≤ capacity for all j and ≥ capacity/2
// for all but one j, hence m ≤ 1 + 2·(Σ size_i)/capacity (Section 2).
//
// The input is a directory: one item per packable unit, annotated with its
// size. The output carries the same tuples, re-annotated with their group id
// (0-based). Following the paper: each server packs locally; full groups get
// global ids by a prefix sum over per-server counts; the ≤ p leftover
// partial groups are packed by the coordinator in one more step.
//
//lint:load const
//lint:rounds const
func ParallelPacking(d *mpc.Dist, capacity int64) (*mpc.Dist, int) {
	if capacity <= 0 {
		panic("primitives: ParallelPacking with non-positive capacity")
	}
	type group struct {
		items []mpc.Item
		sum   int64
	}
	fullPerServer := make([][]group, d.C.P)
	partialPerServer := make([]*group, d.C.P)
	for s := range d.Parts {
		part := &d.Parts[s]
		cur := &group{}
		for i := 0; i < part.Len(); i++ {
			it := part.Item(i)
			if it.A <= 0 || it.A > capacity {
				panic("primitives: ParallelPacking size out of (0, capacity]")
			}
			if 2*it.A >= capacity {
				// Large items form their own (already ≥ capacity/2) group,
				// so closing an accumulator early can never strand a small
				// group below capacity/2.
				fullPerServer[s] = append(fullPerServer[s], group{items: []mpc.Item{it}, sum: it.A})
				continue
			}
			if cur.sum+it.A > capacity {
				fullPerServer[s] = append(fullPerServer[s], *cur)
				cur = &group{}
			}
			cur.items = append(cur.items, it)
			cur.sum += it.A
		}
		if cur.sum > 0 {
			if cur.sum*2 >= capacity {
				fullPerServer[s] = append(fullPerServer[s], *cur)
			} else {
				partialPerServer[s] = cur
			}
		}
	}

	// Prefix sums over g_i (full group counts) via the coordinator.
	d.C.ChargeCoordinator()
	next := 0
	out := mpc.NewDist(d.C, d.Schema)
	assign := func(s int, g group, id int) {
		for _, it := range g.items {
			out.Parts[s].Append(it.T, int64(id))
		}
	}
	for s, groups := range fullPerServer {
		for _, g := range groups {
			assign(s, g, next)
			next++
		}
	}

	// Coordinator packs the ≤ p partial groups (each < capacity/2) greedily;
	// closing only when the next unit would overflow keeps every closed
	// group ≥ capacity/2.
	d.C.ChargeCoordinator()
	var curSum int64
	curID := -1
	for s, g := range partialPerServer {
		if g == nil {
			continue
		}
		if curID < 0 || curSum+g.sum > capacity {
			curID = next
			next++
			curSum = 0
		}
		assign(s, *g, curID)
		curSum += g.sum
	}
	return out, next
}
