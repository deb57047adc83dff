// Package fixture exercises the repodeterminism analyzer: the positive
// cases pin each diagnostic, the negative cases pin the blessed idioms
// (collect-then-sort, seeded generators, loop-local buffers).
package fixture

import (
	"math/rand"
	"sort"
	"time"
)

// emitter and cluster stub the repo's order-sensitive sinks; matching is by
// method name, so the stubs stand in for mpc.Emitter and mpc.Cluster.
type emitter struct{ rows []string }

func (e *emitter) Emit(s string)   {}
func (e *emitter) Drain() []string { return e.rows }

type cluster struct{}

func (c *cluster) ChargeRound(loads []int64)  {}
func (c *cluster) receive(r, s, n int)        {}
func (c *cluster) bookExchange(totals []int)  {}
func (c *cluster) ChargeCoordinator()         {}
func (c *cluster) Merge(subs ...*cluster)     {}
func (c *cluster) MergeGrid(dims ...*cluster) {}

func mapOrderLeaks(m map[string]int, e *emitter, c *cluster) []string {
	var out []string
	for k, v := range m {
		out = append(out, k) // want `append to out inside a range over a map`
		e.Emit(k)            // want `map iteration order reaches an ordered sink: Emit`
		c.ChargeRound(nil)   // want `round charge inside a range over a map`
		_ = v
	}
	return out
}

// ledgerWritesInMapRange reaches the ledger through its writers, a
// synthetic charge and the merges: each books rounds in iteration order.
func ledgerWritesInMapRange(m map[int]int, c *cluster, subs []*cluster) {
	for s, n := range m {
		c.receive(0, s, n)       // want `round charge inside a range over a map: receive`
		c.bookExchange([]int{n}) // want `round charge inside a range over a map: bookExchange`
		c.ChargeCoordinator()    // want `round charge inside a range over a map: ChargeCoordinator`
		c.Merge(subs[s])         // want `round charge inside a range over a map: Merge`
		c.MergeGrid(subs[s])     // want `round charge inside a range over a map: MergeGrid`
	}
}

func wallClockAndGlobalRand() int {
	t := time.Now()                      // want `time\.Now on the deterministic path`
	return t.Nanosecond() + rand.Intn(7) // want `global math/rand\.Intn on the deterministic path`
}

func selectRace(a, b chan int) int {
	select { // want `select with 2 communication clauses`
	case v := <-a:
		return v
	case v := <-b:
		return v
	}
}

// collectThenSort is the blessed idiom: map order is erased by the sort
// before anything order-sensitive sees the data.
func collectThenSort(m map[string]int, e *emitter) {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		e.Emit(k)
	}
}

// loopLocalBuffer dies with each iteration, so its order never escapes.
func loopLocalBuffer(m map[string][]int) int {
	total := 0
	for _, vs := range m {
		var acc []int
		acc = append(acc, vs...)
		total += len(acc)
	}
	return total
}

// seededGenerator is deterministic: constructing (and using) a seeded
// *rand.Rand is the blessed replacement for the global functions.
func seededGenerator(seed int64) int {
	r := rand.New(rand.NewSource(seed))
	return r.Intn(100)
}

// singleCaseSelect has no race to lose.
func singleCaseSelect(a chan int) int {
	select {
	case v := <-a:
		return v
	}
}

// suppressed shows the escape hatch: a reasoned lint:ignore directive.
func suppressed() time.Time {
	//lint:ignore repodeterminism fixture pins that a reasoned ignore suppresses
	return time.Now()
}
