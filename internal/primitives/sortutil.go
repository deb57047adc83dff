// Package primitives implements the MPC building blocks of Section 2 of the
// paper: sum-by-key, multi-numbering, multi-search (as sorted lookup),
// semi-join, parallel-packing and server allocation. All run in O(1) rounds
// with load O(IN/p + p), which is O(IN/p) under the model's standing
// assumption IN ≥ p^{1+ε}.
//
// Skew-sensitive primitives (lookup, semi-join, numbering, distinct) are
// built on a one-round sample sort (Goodrich et al. [14]): records are
// globally sorted by key and cut into p equal chunks, so a heavy key
// spreads over consecutive servers instead of hashing onto one; per-chunk
// boundary information then flows through a coordinator at O(p) load —
// three rounds per primitive; lookup and the semi-join are one
// multi-search over x and d's keys together. The cluster is charged for the sample sort's
// round; the simulator computes its order with a serial, stable,
// key-carrying radix sort of an int32 rank vector, never of whole records
// (see samplesort.go). Records live in pooled columnar sets (see
// reccols.go).
package primitives

import (
	"fmt"

	"repro/internal/mpc"
)

// chopBounds distributes n globally sorted records into p equal chunks —
// index windows, no copying — charging each server its chunk size in one
// round. Chunk s is rows [bounds[s], bounds[s+1]). Shared by the parallel
// sample sort and the tests' serial reference, so both paths charge
// identically.
//
//lint:load perP trust ceil-division chunking puts at most ceil(n/p) records on each server
//lint:rounds const
func chopBounds(c *mpc.Cluster, n int) []int {
	p := c.P
	chunk := (n + p - 1) / p
	if chunk == 0 {
		chunk = 1
	}
	if n > 0 && (n-1)/chunk >= p {
		// Ceil division guarantees the last record lands before server p;
		// a future chunking change that breaks this must not silently
		// overload the last server.
		panic(fmt.Sprintf("primitives: chop record %d past server %d (n=%d, chunk=%d)", n-1, p-1, n, chunk))
	}
	bounds := make([]int, p+1)
	loads := make([]int, p)
	for s := 0; s < p; s++ {
		lo := s * chunk
		if lo > n {
			lo = n
		}
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		bounds[s] = lo
		loads[s] = hi - lo
	}
	bounds[p] = n
	c.ChargeRound(loads)
	return bounds
}

// chargeCoordinatorExchange charges the standard boundary-information
// exchange: every server sends O(1) values to the coordinator (load p at
// server 0), which replies with O(1) values to each server (load 1 each).
//
//lint:load const
//lint:rounds const
func chargeCoordinatorExchange(c *mpc.Cluster) {
	c.Charge(0, c.P)
	ones := make([]int, c.P)
	for i := range ones {
		ones[i] = 1
	}
	c.ChargeRound(ones)
}
