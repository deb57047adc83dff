package mpc

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/relation"
	"repro/internal/runtime"
)

// serialRouteRef is the pre-batching tuple-at-a-time route, kept as the
// parity and benchmark reference: the batched exchange must produce
// value-identical parts and byte-identical charges.
func serialRouteRef(d *Dist, schema relation.Schema, dest func(s int, it Item) []int) *Dist {
	out := &Dist{C: d.C, Schema: schema, Parts: make([]Columns, d.C.P)}
	r := d.C.newRound()
	for s := range d.Parts {
		part := &d.Parts[s]
		for i := 0; i < part.Len(); i++ {
			it := part.Item(i)
			for _, t := range dest(s, it) {
				if t < 0 || t >= d.C.P {
					panic(fmt.Sprintf("mpc: route to invalid server %d", t))
				}
				out.Parts[t].AppendItem(it)
				d.C.receive(r, t, 1)
			}
		}
	}
	return out
}

// manyRouter adapts a list-returning destination function to the exchange's
// append-style router.
func manyRouter(dest func(s int, it Item) []int) router {
	return router{many: func(s int, it Item, dst []int) []int { return append(dst, dest(s, it)...) }}
}

// partsEqual compares two distributed collections row-by-row (tuple values
// and annotation values; the lazy annotation column makes representations
// non-unique, so DeepEqual would be too strict).
func partsEqual(a, b *Dist) bool {
	if len(a.Parts) != len(b.Parts) {
		return false
	}
	for s := range a.Parts {
		if !a.Parts[s].Equal(&b.Parts[s]) {
			return false
		}
	}
	return true
}

// exchangeTestDist builds a skewed random distributed relation: sizes well
// above exchangeSerialBelow exercise the multi-task plan.
func exchangeTestDist(c *Cluster, n int, seed uint64) *Dist {
	r := relation.New("R", relation.NewSchema(1, 2))
	rng := NewRng(seed)
	for i := 0; i < n; i++ {
		// Zipf-ish first column: heavy keys stress per-destination batches.
		v := rng.Intn(1 + rng.Intn(1+n/8))
		r.Add(relation.Value(v), relation.Value(i))
	}
	return FromRelation(c, r)
}

// hashPosFor is the key projection the "hash" shape uses for width-w
// tuples: the first column, or the empty projection for width-0 scalars —
// non-nil, so router.hashPos still engages the flat fast path and hashes
// the empty key.
func hashPosFor(w int) []int {
	if w == 0 {
		return []int{}
	}
	return []int{0}
}

// tupleAt reads t[i], treating missing columns as 0: the routing shapes
// must stay total over every tuple arity the fuzzer generates.
func tupleAt(t relation.Tuple, i int) int {
	if i < len(t) {
		return int(t[i])
	}
	return 0
}

// destFns enumerates every routing shape the algorithms use: single-target
// hashing, bounded replication, variable fan-out (including zero), full
// broadcast, and a gather.
func destFns(p int) map[string]func(s int, it Item) []int {
	all := make([]int, p)
	for i := range all {
		all[i] = i
	}
	return map[string]func(s int, it Item) []int{
		"hash": func(_ int, it Item) []int {
			return []int{int(Hash64(relation.KeyAt(it.T, hashPosFor(len(it.T))), 7) % uint64(p))}
		},
		"replicate2": func(_ int, it Item) []int {
			v := tupleAt(it.T, 1)
			return []int{v % p, (v*7 + 1) % p}
		},
		"fanout0to2": func(s int, it Item) []int {
			v := tupleAt(it.T, 1)
			switch v % 3 {
			case 0:
				return nil
			case 1:
				return []int{(s + v) % p}
			default:
				return []int{v % p, (s + 1) % p}
			}
		},
		"broadcast": func(_ int, _ Item) []int { return all },
		"gather":    func(_ int, _ Item) []int { return []int{3 % p} },
	}
}

// roundTable copies the per-round, per-server receive table.
func roundTable(c *Cluster) [][]int {
	out := make([][]int, len(c.rounds))
	for r, row := range c.rounds {
		out[r] = append([]int(nil), row...)
	}
	return out
}

// TestExchangeParityWithSerialRoute is the tentpole's core guarantee: for
// every routing shape, the batched exchange produces exactly the parts and
// exactly the per-round, per-server charges of the old tuple-at-a-time
// loop — at serial width and at parallel widths.
func TestExchangeParityWithSerialRoute(t *testing.T) {
	const p, n = 16, 20000
	for name, dest := range destFns(p) {
		t.Run(name, func(t *testing.T) {
			ref := NewCluster(p)
			refOut := serialRouteRef(exchangeTestDist(ref, n, 11), relation.NewSchema(1, 2), dest)
			refTable := roundTable(ref)

			for _, width := range []int{1, 2, 3, 8} {
				prev := runtime.SetParallelism(width)
				c := NewCluster(p)
				got := exchangeTestDist(c, n, 11).route(relation.NewSchema(1, 2), manyRouter(dest))
				gotTable := roundTable(c)
				runtime.SetParallelism(prev)

				if !partsEqual(refOut, got) {
					t.Fatalf("width %d: parts differ from the serial reference", width)
				}
				if !reflect.DeepEqual(refTable, gotTable) {
					t.Fatalf("width %d: charge tables differ:\nref %v\ngot %v", width, refTable, gotTable)
				}
			}
		})
	}
}

// TestExchangePlanBatchCounts is the property test for the counting pass:
// every task's per-destination batch count must equal the count computed
// directly from the destination function over the task's span, the totals
// must match the materialized parts, and the fan-out records must account
// for every delivery.
func TestExchangePlanBatchCounts(t *testing.T) {
	const p, n = 16, 20000
	c := NewCluster(p)
	d := exchangeTestDist(c, n, 23)
	// Shapes whose fan-out is uniformly 1 must elide the fan column.
	uniform := map[string]bool{"hash": true, "gather": true}
	for name, dest := range destFns(p) {
		t.Run(name, func(t *testing.T) {
			for _, tasks := range []int{1, 3, p, 2 * p} {
				plan := newExchangePlan(d, manyRouter(dest), tasks)
				if len(plan.spans) > tasks {
					t.Fatalf("tasks=%d: got %d spans", tasks, len(plan.spans))
				}
				// Spans must partition the items in global (source, item)
				// order — item-granular cuts, so a span may end mid-part.
				var walked []Item
				for _, sp := range plan.spans {
					sp.each(d.Parts, func(_ int, cols *Columns, lo, hi int) {
						for i := lo; i < hi; i++ {
							walked = append(walked, cols.Item(i))
						}
					})
				}
				all := d.All()
				if !reflect.DeepEqual(walked, all) {
					t.Fatalf("tasks=%d: spans do not partition the items in order", tasks)
				}
				for w, sp := range plan.spans {
					want := make([]int32, p)
					deliveries, items := 0, 0
					sp.each(d.Parts, func(s int, cols *Columns, lo, hi int) {
						for i := lo; i < hi; i++ {
							items++
							for _, dst := range dest(s, cols.Item(i)) {
								want[dst]++
								deliveries++
							}
						}
					})
					if !reflect.DeepEqual(plan.counts[w], want) {
						t.Fatalf("tasks=%d task %d: batch counts %v, want %v", tasks, w, plan.counts[w], want)
					}
					if len(plan.dests[w]) != deliveries {
						t.Fatalf("tasks=%d task %d: %d recorded dests, want %d", tasks, w, len(plan.dests[w]), deliveries)
					}
					if plan.fans[w] == nil {
						if deliveries != items {
							t.Fatalf("tasks=%d task %d: fan column elided but %d deliveries for %d items",
								tasks, w, deliveries, items)
						}
					} else {
						var fanSum int32
						for _, f := range plan.fans[w] {
							fanSum += f
						}
						if int(fanSum) != deliveries {
							t.Fatalf("tasks=%d task %d: fan-out sum %d, want %d", tasks, w, fanSum, deliveries)
						}
					}
					if uniform[name] && plan.fans[w] != nil {
						t.Fatalf("tasks=%d task %d: %s should elide the fan column", tasks, w, name)
					}
				}
			}
		})
	}
}

// TestExchangeSkewedSourceStillFansOut pins the skew behaviour: when every
// item sits in ONE source part (e.g. a gathered collection routed again),
// item-granular spans must still cut the work into multiple tasks, and the
// result must stay byte-identical to the serial reference.
func TestExchangeSkewedSourceStillFansOut(t *testing.T) {
	const p, n = 16, 20000
	dest := destFns(p)["hash"]

	ref := NewCluster(p)
	refGathered := exchangeTestDist(ref, n, 31).GatherTo(5)
	refOut := serialRouteRef(refGathered, refGathered.Schema, dest)

	plan := newExchangePlan(refGathered, manyRouter(dest), 4)
	if len(plan.spans) != 4 {
		t.Fatalf("skewed source planned %d spans, want 4", len(plan.spans))
	}

	for _, width := range []int{1, 4} {
		prev := runtime.SetParallelism(width)
		c := NewCluster(p)
		got := exchangeTestDist(c, n, 31).GatherTo(5).route(refGathered.Schema, manyRouter(dest))
		runtime.SetParallelism(prev)
		if !partsEqual(refOut, got) {
			t.Fatalf("width %d: parts differ", width)
		}
	}
}

// TestExchangeStatsDeterministic checks the exchange counters surface the
// exact per-destination totals, independent of the worker count.
func TestExchangeStatsDeterministic(t *testing.T) {
	const p, n = 8, 10000
	var ref ExchangeStats
	for i, width := range []int{1, 4} {
		prev := runtime.SetParallelism(width)
		c := NewCluster(p)
		d := exchangeTestDist(c, n, 5)
		d = d.ShuffleByKey([]int{0}, 99)
		d.Broadcast()
		runtime.SetParallelism(prev)

		st := c.Exchange()
		if i == 0 {
			ref = st
			if st.Exchanges != 2 {
				t.Fatalf("Exchanges = %d, want 2", st.Exchanges)
			}
			if st.Tuples != int64(n)+int64(n)*int64(p) {
				t.Fatalf("Tuples = %d, want %d", st.Tuples, n+n*p)
			}
		} else if st != ref {
			t.Fatalf("width %d stats %+v differ from serial %+v", width, st, ref)
		}
	}
}

// TestExchangeStatsFoldFromSubClusters: Snapshot carries a sub-cluster's
// exchange counters and every Merge* folds them into the parent, so
// recursive algorithms do not drop the routing their sub-computations did.
func TestExchangeStatsFoldFromSubClusters(t *testing.T) {
	const n = 8192
	mkChild := func() Stats {
		child := NewCluster(4)
		exchangeTestDist(child, n, 9).ShuffleByKey([]int{0}, 1)
		return child.Snapshot()
	}
	if mkChild().Exchange.Tuples != n {
		t.Fatalf("Snapshot dropped the child's exchange stats")
	}

	parent := NewCluster(8)
	parent.MergeParallel([]Stats{mkChild(), mkChild()})
	parent.MergeGrid([]Stats{mkChild()})
	parent.MergeSequential(mkChild())
	got := parent.Exchange()
	if got.Exchanges != 4 || got.Tuples != 4*n {
		t.Fatalf("folded stats %+v, want 4 exchanges / %d tuples", got, 4*n)
	}
}

// TestExchangeInvalidServerPanics: the validity check must survive the
// refactor at every width.
func TestExchangeInvalidServerPanics(t *testing.T) {
	for _, width := range []int{1, 8} {
		prev := runtime.SetParallelism(width)
		func() {
			defer runtime.SetParallelism(prev)
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("width %d: no panic for invalid destination", width)
				}
				if !strings.Contains(fmt.Sprint(r), "invalid server") {
					t.Fatalf("width %d: panic %v does not name the invalid server", width, r)
				}
			}()
			c := NewCluster(4)
			d := exchangeTestDist(c, 8192, 3)
			d.ReplicateAppend(func(it Item, dst []int) []int { return append(dst, int(it.T[1])) })
		}()
	}
}

// TestChargeRoundRejectsOversizedLoads: silently truncating a loads slice
// longer than the cluster would under-charge the round.
func TestChargeRoundRejectsOversizedLoads(t *testing.T) {
	c := NewCluster(2)
	defer func() {
		if recover() == nil {
			t.Fatal("ChargeRound accepted 3 loads on 2 servers")
		}
	}()
	c.ChargeRound([]int{1, 2, 3})
}

// TestShardedEmitterConcurrentPartitions drives one producer per partition
// concurrently — the exchange's ownership contract — and checks the merged
// relation is the partition-major serial order. Run under -race this is
// the lock-freedom proof.
func TestShardedEmitterConcurrentPartitions(t *testing.T) {
	const parts, perPart = 8, 500
	e := NewShardedEmitter(relation.NewSchema(1, 2), parts)
	var wg sync.WaitGroup
	for s := 0; s < parts; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < perPart; i++ {
				e.Emit(s, relation.Tuple{relation.Value(s), relation.Value(i)}, int64(s*perPart+i))
			}
		}(s)
	}
	wg.Wait()
	if e.N() != parts*perPart {
		t.Fatalf("N = %d, want %d", e.N(), parts*perPart)
	}
	rel := e.Rel()
	for s := 0; s < parts; s++ {
		for i := 0; i < perPart; i++ {
			k := s*perPart + i
			want := relation.Tuple{relation.Value(s), relation.Value(i)}
			if !reflect.DeepEqual(rel.Tuples[k], want) || rel.Annots[k] != int64(k) {
				t.Fatalf("row %d = %v/%d, want %v/%d", k, rel.Tuples[k], rel.Annots[k], want, k)
			}
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("out-of-range partition did not panic")
			}
		}()
		e.Emit(parts, relation.Tuple{0, 0}, 1)
	}()
}
