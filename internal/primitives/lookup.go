package primitives

import (
	"fmt"
	"sort"

	"repro/internal/mpc"
	"repro/internal/relation"
	"repro/internal/runtime"
)

// LookupResult is handed to the combine callback of Lookup for every x item.
type LookupResult struct {
	Found  bool
	DTuple relation.Tuple
	DAnnot int64
}

// Lookup is the paper's multi-search primitive specialized to the uses in
// the paper's algorithms: for every item of x, find the unique d item with
// an equal key (exact match; d must have at most one item per key, as
// produced by SumByKey/DistinctByKey) and rewrite the x item via combine.
// combine returns the replacement item and whether to keep it; it is called
// on one goroutine, and a kept item is copied into the output before the
// next call, so combine may return the same scratch tuple every time.
//
// The implementation is sort-based and therefore skew-proof: x and d are
// sorted together by key (d entries first), cut into p equal chunks, and
// the "last seen d entry" flows across chunk boundaries through the
// coordinator. Three rounds — the sort round, then the gather to and the
// reply from the coordinator — at load O((|x|+|d|)/p + p).
//
// Records are collected into a pooled columnar set with flat fixed-width
// keys: building a key copies its values into the key buffer, comparing
// keys is a word-wise value loop, and the columns are recycled on return —
// no per-call []rec rebuild and no byte-string interning. Duplicate
// directory keys surface as adjacent d records in the sorted order (d
// records sort before x records of the same key), so the boundary scan
// doubles as the duplicate check.
//
//lint:load perP
//lint:rounds const
func Lookup(x *mpc.Dist, xKey []relation.Attr, d *mpc.Dist, dKey []relation.Attr,
	outSchema relation.Schema,
	combine func(it mpc.Item, r LookupResult) (mpc.Item, bool)) *mpc.Dist {

	xPos := x.Positions(xKey)
	dPos := d.Positions(dKey)

	rc := getRecCols(x.Size() + d.Size())
	rc.appendDist(d, dPos, 0)
	// An empty probe side has an empty result; a trivially-empty sub-query
	// must not pay the sort and coordinator rounds. The duplicate-key check
	// runs before the early-out, so a malformed directory still panics.
	if x.Size() == 0 {
		verifyDistinctDirectory(rc)
		putRecCols(rc)
		return mpc.NewDist(x.C, outSchema)
	}
	rc.appendDist(x, xPos, 1)

	bounds := sortAndChop(x.C, rc)

	// Boundary propagation: carry[s] = the row of the latest d record at or
	// before the start of chunk s (−1: none). One coordinator exchange.
	// Equal-key d records are adjacent here — the duplicate-directory check.
	carry := make([]int, x.C.P)
	last := -1
	for s := 0; s < x.C.P; s++ {
		carry[s] = last
		for i := bounds[s]; i < bounds[s+1]; i++ {
			if rc.tags[i] == 0 {
				if last >= 0 && rc.keyEq(last, i) {
					panic(fmt.Sprintf("primitives: Lookup directory has duplicate key %v", rc.key(i)))
				}
				last = i
			}
		}
	}
	chargeCoordinatorExchange(x.C)

	out := mpc.NewDist(x.C, outSchema)
	for s := 0; s < x.C.P; s++ {
		cur := carry[s]
		for i := bounds[s]; i < bounds[s+1]; i++ {
			if rc.tags[i] == 0 {
				cur = i
				continue
			}
			res := LookupResult{}
			if cur >= 0 && rc.keyEq(cur, i) {
				res = LookupResult{Found: true, DTuple: rc.tuples[cur], DAnnot: rc.annots[cur]}
			}
			if it, keep := combine(rc.item(i), res); keep {
				out.Parts[s].AppendItem(it)
			}
		}
	}
	putRecCols(rc)
	return out
}

// verifyDistinctDirectory panics when the staged directory records carry a
// duplicate key. Only the empty-probe early-out needs it — the sorted path
// detects duplicates as adjacent d records for free — so it makes them
// adjacent the same way: the sort alone is local and charges nothing.
func verifyDistinctDirectory(rc *recCols) {
	sampleSortCols(rc)
	for i := 1; i < rc.len(); i++ {
		if rc.keyEq(i-1, i) {
			panic(fmt.Sprintf("primitives: Lookup directory has duplicate key %v", rc.key(i)))
		}
	}
}

// SemiJoin returns the items of x whose key projection matches at least one
// item of d (R1 ⋉ R2 in the paper's Section 2; d may hold duplicates) as
// one multi-search, in (key, input order) re-chopped over the servers.
// Three rounds, load O((|x| + min(|d|, p·keys))/p + p). The sort underneath
// is deterministic (a radix sort, no RNG), so no salt is taken.
//
//lint:load perP
//lint:rounds const
func SemiJoin(x *mpc.Dist, xKey []relation.Attr, d *mpc.Dist, dKey []relation.Attr) *mpc.Dist {
	return semiJoinSorted(x, xKey, d, dKey, true)
}

// AntiJoin returns the items of x with no matching key in d; rounds and
// load as SemiJoin.
//
//lint:load perP
//lint:rounds const
func AntiJoin(x *mpc.Dist, xKey []relation.Attr, d *mpc.Dist, dKey []relation.Attr) *mpc.Dist {
	return semiJoinSorted(x, xKey, d, dKey, false)
}

// semiJoinSorted keeps the items of x whose key is (keepFound) or is not
// among d's keys. A semi-join needs no globally distinct directory: d
// records sort before x records of the same key, so "found" is "the
// nearest preceding d record has my key". Each server stages only the d
// rows that open a key group locally (the uncharged combiner) next to all
// of x; the one record set is rank-sorted once and cut into p chunks, and
// no column is permuted: a chunk is a window of the rank vector, scanned
// as i := order[j]. What crosses a chunk boundary is one record, the d
// record opening the run the previous chunk ends in; each chunk end finds
// it by binary search (d records lead their run), the pass over the p
// chunk ends is the coordinator exchange, and the chunks are scanned
// concurrently, task s appending only to its own output part. Task s first
// counts the x records of its window — every row it can keep — and
// reserves its part once for them, so the part never grows by doubling.
//
//lint:load perP
//lint:rounds const
func semiJoinSorted(x *mpc.Dist, xKey []relation.Attr, d *mpc.Dist, dKey []relation.Attr, keepFound bool) *mpc.Dist {
	out := mpc.NewDist(x.C, x.Schema)
	// An empty probe side is empty output; don't pay for d either.
	if x.Size() == 0 {
		return out
	}
	xPos, dPos := x.Positions(xKey), d.Positions(dKey)

	rc := getRecCols(x.Size() + d.Size())
	rc.appendOpeners(d, dPos)
	rc.appendDist(x, xPos, 1)

	sc := getSortScratch()
	order := rankSort(rc, sc)
	bounds := chopBounds(x.C, len(order))

	// carry[s] = the d record opening the run that the record before chunk
	// s belongs to, −1 when that run has none (or nothing precedes s).
	carry := make([]int32, x.C.P)
	for s := range carry {
		carry[s] = -1
		if lo := bounds[s]; lo > 0 && lo < len(order) {
			end := order[lo-1]
			run := order[sort.Search(lo, func(j int) bool { return !rc.keyLess(int(order[j]), int(end)) })]
			if rc.tags[run] == 0 {
				carry[s] = run
			}
		}
	}
	chargeCoordinatorExchange(x.C)

	runtime.Fork(x.C.P, func(s int) {
		window := order[bounds[s]:bounds[s+1]]
		xs := 0
		for _, i := range window {
			xs += int(rc.tags[i])
		}
		part := &out.Parts[s]
		part.Reserve(len(x.Schema), xs)
		cur := carry[s]
		for _, i := range window {
			if rc.tags[i] == 0 {
				cur = i
				continue
			}
			if found := cur >= 0 && rc.keyEq(int(cur), int(i)); found == keepFound {
				part.Append(rc.tuples[i], rc.annots[i])
			}
		}
	})
	putSortScratch(sc)
	putRecCols(rc)
	return out
}

// AttachAnnot rewrites each x item's annotation by combining it with the
// annotation of the matching d entry via ring.Mul; items without a match
// are dropped when dropMissing, kept unchanged otherwise. This is the
// annotation-merge step (line 9) of LinearAggroYannakakis.
//
//lint:load perP
//lint:rounds const
func AttachAnnot(x *mpc.Dist, xKey []relation.Attr, d *mpc.Dist, dKey []relation.Attr,
	ring relation.Semiring, dropMissing bool) *mpc.Dist {
	return Lookup(x, xKey, d, dKey, x.Schema,
		func(it mpc.Item, r LookupResult) (mpc.Item, bool) {
			if !r.Found {
				return it, !dropMissing
			}
			return mpc.Item{T: it.T, A: ring.Mul(it.A, r.DAnnot)}, true
		})
}

// DistinctByKey reduces d to one item per distinct key projection,
// sort-based and skew-proof. The kept item is the first in sort order; its
// annotation is NOT combined (use SumByKey for that).
//
//lint:alloc-ceiling
//lint:load perP
//lint:rounds const
func DistinctByKey(d *mpc.Dist, keyAttrs []relation.Attr) *mpc.Dist {
	pos := d.Positions(keyAttrs)
	schema := relation.NewSchema(keyAttrs...)
	if d.Size() == 0 {
		return mpc.NewDist(d.C, schema)
	}
	// Local dedup first (combiner): at most one record per (server, key).
	// A record's key column entry is the kept projection itself, so nothing
	// is built per key.
	rc := getRecCols(d.Size())
	rc.appendOpeners(d, pos)
	bounds := sortAndChop(d.C, rc)
	// Cross-chunk dedup: each server drops its first run if the previous
	// chunk ends with the same key (boundary info via coordinator). Equal
	// keys are adjacent after the sort, so the previously kept row index is
	// all the boundary state needed.
	chargeCoordinatorExchange(d.C)
	out := mpc.NewDist(d.C, schema)
	prev := -1
	for s := 0; s < d.C.P; s++ {
		for i := bounds[s]; i < bounds[s+1]; i++ {
			if prev >= 0 && rc.keyEq(prev, i) {
				continue
			}
			out.Parts[s].Append(rc.key(i), rc.annots[i])
			prev = i
		}
	}
	putRecCols(rc)
	return out
}
