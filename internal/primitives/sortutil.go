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
// round. Chunk s is rows [bounds[s], bounds[s+1]). The bounds and the
// loads the round is charged from are windows of sc.bounds, so a call
// allocates neither (ChargeRound copies the loads into the round); the
// bounds are valid until sc is put back. Shared by the parallel sample
// sort and the tests' serial reference, so both paths charge identically.
//
//lint:load perP trust ceil-division chunking puts at most ceil(n/p) records on each server
//lint:rounds const
func chopBounds(c *mpc.Cluster, n int, sc *sortScratch) []int {
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
	sc.bounds = mpc.Resize(sc.bounds, 2*p+1)
	bounds, loads := sc.bounds[:p+1], sc.bounds[p+1:]
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
