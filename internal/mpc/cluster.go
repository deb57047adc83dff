// Package mpc simulates the massively parallel computation model the paper
// works in: p servers, computation in rounds, cost = load L = the maximum
// number of tuples received by any server in any round.
//
// The simulator executes algorithms at tuple granularity: every exchange
// routes concrete tuples to concrete servers and records per-server,
// per-round receive counts. MaxLoad() is therefore a measurement of the
// paper's L, not a formula. Local computation is free, as in the model;
// emitting join results is free (the paper's zero-cost emit()).
//
// Recursive algorithms (Sections 3.2 and 5.1) run sub-computations on
// sub-clusters and merge them back by one rule: the merged ledger gains one
// round per sub-ledger round (the input round only when some sub-cluster
// received input), and each round's load combines the sub-clusters' round
// maxima. Sub-clusters on disjoint server groups combine by the maximum (a
// single sub-cluster is a sequential phase); the Cartesian grid of Section
// 3.2 Case 2 combines by the sum, exact because the grid contains a server
// at the argmax coordinate of every dimension. Every synthetic charge —
// communication whose routing is fully determined, so it is booked without
// being materialized — is a Cluster method too, so this file is the whole
// ledger.
package mpc

import "fmt"

// Cluster is a simulated MPC deployment of P servers. Round 0 is reserved
// for the initial data distribution, so MaxLoad() ≥ IN/P as in the model.
//
// The ledger has one writer: the coordinating goroutine — the one that
// opens rounds — books every receive, the batched exchange's included
// (routeTasks books the plan's per-destination totals after its forked
// tasks have finished). Forked tasks never touch a cluster they did not
// create, so reads and writes need no synchronisation.
type Cluster struct {
	P int

	rounds   [][]int // rounds[r][s] = tuples received by server s in round r
	exchange ExchangeStats
}

// NewCluster returns a cluster of p ≥ 1 servers.
func NewCluster(p int) *Cluster {
	if p < 1 {
		panic(fmt.Sprintf("mpc: invalid server count %d", p))
	}
	return &Cluster{P: p, rounds: [][]int{make([]int, p)}}
}

// bookExchange books one exchange from the plan's exact per-destination
// totals: the receives of the open round and the deterministic
// per-exchange statistics, in one pass.
func (c *Cluster) bookExchange(totals []int) {
	cur := c.rounds[len(c.rounds)-1]
	c.exchange.Exchanges++
	for s, n := range totals {
		if n > 0 {
			cur[s] += n
			c.exchange.Tuples += int64(n)
			c.exchange.ActiveDests++
		}
	}
}

// Exchange reports the batched exchange's counters for this cluster.
func (c *Cluster) Exchange() ExchangeStats { return c.exchange }

// newRound closes the open round, starts a fresh one, and returns its
// index.
//
// This is the ground truth of the static round accounting: every charge in
// the repository reaches a round through this append, so its trusted
// declaration is the axiom the roundcost analyzer composes everything
// else from.
//
//lint:rounds const trust the simulator's single base charge: one append, one round
func (c *Cluster) newRound() int {
	c.rounds = append(c.rounds, make([]int, c.P))
	return len(c.rounds) - 1
}

// receive records n tuples received by server s in round r.
func (c *Cluster) receive(r, s, n int) { c.rounds[r][s] += n }

// input records n tuples placed on server s as part of the initial
// distribution (round 0).
func (c *Cluster) input(s, n int) { c.receive(0, s, n) }

// Rounds returns the number of communication rounds so far (excluding the
// initial distribution).
func (c *Cluster) Rounds() int { return len(c.rounds) - 1 }

// MaxLoad returns the realized load L: the maximum number of tuples
// received by any server in any round, including the initial distribution.
func (c *Cluster) MaxLoad() int {
	max := 0
	for _, row := range c.rounds {
		for _, v := range row {
			if v > max {
				max = v
			}
		}
	}
	return max
}

// RoundMax returns the largest per-server receive count of round r.
func (c *Cluster) RoundMax(r int) int {
	max := 0
	for _, v := range c.rounds[r] {
		if v > max {
			max = v
		}
	}
	return max
}

// TotalComm returns the total number of tuples communicated (all rounds,
// all servers), excluding the initial distribution.
func (c *Cluster) TotalComm() int {
	sum := 0
	for r := 1; r < len(c.rounds); r++ {
		for _, v := range c.rounds[r] {
			sum += v
		}
	}
	return sum
}

// Stats summarizes a computation's ledger: what tests compare for
// equality between a computation and its reference.
type Stats struct {
	P         int
	RoundMaxs []int // per-round maximum per-server load, excluding input
	InputMax  int   // round-0 maximum
	Exchange  ExchangeStats
}

// Snapshot extracts the cluster's statistics.
func (c *Cluster) Snapshot() Stats {
	s := Stats{P: c.P, InputMax: c.RoundMax(0), Exchange: c.Exchange()}
	for r := 1; r < len(c.rounds); r++ {
		s.RoundMaxs = append(s.RoundMaxs, c.RoundMax(r))
	}
	return s
}

// Merge books sub-computations that ran simultaneously on disjoint server
// groups, after everything recorded so far: each merged round carries the
// largest round maximum any sub-cluster reached in it. A single sub-cluster
// is a sequential phase, its round maxima appended verbatim.
//
//lint:rounds const trust appends max sub-cluster rounds, a count set by the query's recursion structure
//lint:load linear trust replays max sub-cluster round maxima; the sub-runs' own declarations bound them
func (c *Cluster) Merge(subs ...*Cluster) {
	c.merge(subs, func(acc, m int) int { return max(acc, m) })
}

// MergeGrid books the per-dimension computations of a Cartesian-grid
// arrangement (Section 3.2 Case 2): every grid server participates in one
// group per dimension, so its load in a round is the SUM over dimensions of
// the load it receives from each group. The per-round maximum over the grid
// is exactly the sum of per-dimension maxima: the grid contains a server
// whose coordinate in every dimension is that dimension's argmax.
//
//lint:rounds const trust appends max per-dimension rounds, a count set by the query's recursion structure
//lint:load linear trust replays summed per-dimension round maxima; the sub-runs' own declarations bound them
func (c *Cluster) MergeGrid(dims ...*Cluster) {
	c.merge(dims, func(acc, m int) int { return acc + m })
}

// merge is the one composition rule: it appends one round per round of the
// longest sub-ledger, whose load on server 0 combines the round maxima of
// the sub-clusters that reached that round, and folds in their exchange
// counters. A sub-computation's input round was a real exchange from c's
// perspective (data had to reach the sub-cluster's servers), so it is
// appended as a communication round when some sub-cluster received input.
func (c *Cluster) merge(subs []*Cluster, combine func(acc, m int) int) {
	rounds := 0
	for _, sub := range subs {
		rounds = max(rounds, len(sub.rounds))
		c.exchange.Exchanges += sub.exchange.Exchanges
		c.exchange.Tuples += sub.exchange.Tuples
		c.exchange.ActiveDests += sub.exchange.ActiveDests
	}
	for r := range rounds {
		m := 0
		for _, sub := range subs {
			if r < len(sub.rounds) {
				m = combine(m, sub.RoundMax(r))
			}
		}
		if r > 0 || m > 0 {
			c.receive(c.newRound(), 0, m)
		}
	}
}

// Charge records a synthetic receive of n tuples on server s in a fresh
// round. It models communication whose routing is fully determined (e.g.
// packing whole groups onto designated servers) without materializing it.
//
// Charge, ChargeInput, and ChargeRound are the load classifier's
// intrinsics: repoloadcost recognizes them syntactically at every call site
// and classifies the arithmetic shape of their magnitude arguments, so they
// carry no //lint:load declarations of their own.
//
//lint:rounds const
func (c *Cluster) Charge(s, n int) {
	r := c.newRound()
	c.receive(r, s, n)
}

// ChargeInput records total tuples spread evenly over the servers as part
// of the initial distribution (round 0). Used when a sub-cluster receives a
// sub-problem's input.
//
//lint:rounds zero
func (c *Cluster) ChargeInput(total int) {
	per := total / c.P
	rem := total % c.P
	for s := 0; s < c.P; s++ {
		n := per
		if s < rem {
			n++
		}
		c.input(s, n)
	}
}

// ChargeRound records synthetic receives for several servers in one shared
// round; loads[s] tuples arrive at server s. A loads slice longer than the
// cluster is a caller bug — silently truncating it would under-charge the
// round — so it panics.
//
//lint:rounds const
func (c *Cluster) ChargeRound(loads []int) {
	if len(loads) > c.P {
		panic(fmt.Sprintf("mpc: ChargeRound with %d loads on %d servers", len(loads), c.P))
	}
	r := c.newRound()
	for s, n := range loads {
		c.receive(r, s, n)
	}
}

// ChargeSpread records total tuples spread evenly over the servers in one
// fresh round: a linear-load statistics pass (degree counting, sum-by-key
// passes and the like).
//
//lint:load perP
//lint:rounds const
func (c *Cluster) ChargeSpread(total int) {
	loads := make([]int, c.P)
	per := total / c.P
	rem := total % c.P
	for s := range loads {
		loads[s] = per
		if s < rem {
			loads[s]++
		}
	}
	c.ChargeRound(loads)
}

// ChargeCoordinator records the standard boundary-information exchange:
// every server sends O(1) values to the coordinator (load p at server 0),
// which replies with O(1) values to each server (load 1 each).
//
//lint:load const
//lint:rounds const
func (c *Cluster) ChargeCoordinator() {
	c.Charge(0, c.P)
	ones := make([]int, c.P)
	for i := range ones {
		ones[i] = 1
	}
	c.ChargeRound(ones)
}

// ChargeDirectory records gathering n directory entries to the coordinator
// and broadcasting them to every server. An empty directory books nothing.
//
//lint:load const trust callers pass O(p) directory entries, set by degree thresholds, not by the data
//lint:rounds const
func (c *Cluster) ChargeDirectory(n int) {
	if n == 0 {
		return
	}
	c.Charge(0, n)
	loads := make([]int, c.P)
	for i := range loads {
		loads[i] = n
	}
	c.ChargeRound(loads)
}
