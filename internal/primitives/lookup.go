package primitives

import (
	"fmt"
	"sort"

	"repro/internal/mpc"
	"repro/internal/relation"
	"repro/internal/runtime"
)

// LookupResult is handed to the emit callback of Lookup for every x item.
type LookupResult struct {
	Found  bool
	DTuple relation.Tuple
	DAnnot int64
}

// Lookup is the paper's multi-search primitive specialized to the uses in
// the paper's algorithms: for every item of x, find the unique d item with
// an equal key (exact match; d must have at most one item per key, as
// produced by SumByKey/DistinctByKey) and let emit append the rows the x
// item becomes (usually zero or one) to out, the part of the server the
// item's chunk lands on. emit writes nothing but out: it runs on the
// forked chunk scan, one task per part.
//
// It is one multi-search (see multiSearch): three rounds — the sort round,
// then the gather to and the reply from the coordinator — at load
// O((|x|+|d|)/p + p). A duplicate directory key panics.
//
//lint:load perP
//lint:rounds const
func Lookup(x *mpc.Dist, xKey []relation.Attr, d *mpc.Dist, dKey []relation.Attr,
	outSchema relation.Schema, emit func(out *mpc.Columns, it mpc.Item, r LookupResult)) *mpc.Dist {
	out := mpc.NewDist(x.C, outSchema)
	multiSearch(x, xKey, d, dKey, true, emit, out, split{})
	return out
}

// SplitLookup is Lookup for a two-way partition: every x item lands whole,
// annotation kept, in yes when pick(its lookup result) holds and in no
// otherwise. One multi-search serves both outputs, so part s of yes and of
// no are the two filters of the same sorted chunk — the parts two Lookups
// with complementary emits would build, at the rounds and load of one.
//
//lint:load perP
//lint:rounds const
func SplitLookup(x *mpc.Dist, xKey []relation.Attr, d *mpc.Dist, dKey []relation.Attr,
	pick func(r LookupResult) bool) (yes, no *mpc.Dist) {
	yes, no = mpc.NewDist(x.C, x.Schema), mpc.NewDist(x.C, x.Schema)
	multiSearch(x, xKey, d, dKey, true, nil, yes, split{alt: no, pick: pick})
	return yes, no
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
	out := mpc.NewDist(x.C, x.Schema)
	multiSearch(x, xKey, d, dKey, false, keepFound, out, split{})
	return out
}

// AntiJoin returns the items of x with no matching key in d; rounds and
// load as SemiJoin.
//
//lint:load perP
//lint:rounds const
func AntiJoin(x *mpc.Dist, xKey []relation.Attr, d *mpc.Dist, dKey []relation.Attr) *mpc.Dist {
	out := mpc.NewDist(x.C, x.Schema)
	multiSearch(x, xKey, d, dKey, false, keepMissing, out, split{})
	return out
}

// keepFound and keepMissing are the semi- and anti-join's emits.
func keepFound(out *mpc.Columns, it mpc.Item, r LookupResult) {
	if r.Found {
		out.Append(it.T, it.A)
	}
}

func keepMissing(out *mpc.Columns, it mpc.Item, r LookupResult) {
	if !r.Found {
		out.Append(it.T, it.A)
	}
}

// split is a two-way multi-search's second output: every x item lands
// whole in out when pick(its lookup result) holds and in alt otherwise.
// The zero split leaves the rows to emit.
type split struct {
	alt  *mpc.Dist
	pick func(r LookupResult) bool
}

// multiSearch is the paper's multi-search, the one scan under Lookup,
// SplitLookup, SemiJoin and AntiJoin: every x item learns whether d holds
// its key, and emit appends what it becomes to its server's part of the
// caller's empty out (the caller allocates it: results the forked scan
// captured would be moved to the heap, two allocations a call). d records
// sort before x records of the same key, so "found" is "the nearest
// preceding d record has my key". A directory (Lookup) must
// be distinct and is staged whole, so that the scan sees a key held twice
// on one server. Otherwise d may hold duplicates (the semi-join): each
// server stages only the d rows that open a key group locally (the
// uncharged combiner), and r carries the first record of the key's run.
// Next to all of x, the one record set is rank-sorted once and cut into p
// chunks, and no column is permuted: a chunk is a window of the rank
// vector, scanned as i := order[j]. What crosses a chunk boundary is one
// record, the d record opening the run the previous chunk ends in; each
// chunk end finds it by binary search (d records lead their run), the pass
// over the p chunk ends is the coordinator exchange, and the chunks are
// scanned concurrently, task s appending only to its own output part. Task
// s first counts the x records of its window and reserves its part once
// for one row each, so a part that emit fills with at most a row per item
// never grows by doubling. Equal-key d records are adjacent in the scan,
// or the first of a chunk meets its twin as the carry, so the scan doubles
// as the directory's duplicate check. A split (SplitLookup) takes emit's
// place: it appends each x item whole to part s of out or of its alt.
//
//lint:load perP
//lint:rounds const
func multiSearch(x *mpc.Dist, xKey []relation.Attr, d *mpc.Dist, dKey []relation.Attr, directory bool,
	emit func(out *mpc.Columns, it mpc.Item, r LookupResult), out *mpc.Dist, sp split) {
	// An empty probe side is empty output and pays no rounds; only a
	// directory is staged, to check it for duplicate keys.
	if x.Size() == 0 && !directory {
		return
	}
	xPos, dPos := x.Positions(xKey), d.Positions(dKey)

	rc := getRecCols(x.Size() + d.Size())
	if directory {
		rc.appendDist(d, dPos, 0)
	} else {
		rc.appendOpeners(d, dPos)
	}
	if x.Size() == 0 {
		verifyDistinctDirectory(rc)
		putRecCols(rc)
		return
	}
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
	x.C.ChargeCoordinator()

	runtime.Fork(x.C.P, func(s int) {
		window := order[bounds[s]:bounds[s+1]]
		xs := 0
		for _, i := range window {
			xs += int(rc.tags[i])
		}
		w := len(out.Schema)
		part := &out.Parts[s]
		part.Reserve(w, xs)
		var altPart *mpc.Columns
		if sp.alt != nil {
			altPart = &sp.alt.Parts[s]
			altPart.Reserve(w, xs)
		}
		cur := carry[s]
		for _, i := range window {
			if rc.tags[i] == 0 {
				if directory && cur >= 0 && rc.keyEq(int(cur), int(i)) {
					panic(fmt.Sprintf("primitives: Lookup directory has duplicate key %v", rc.key(int(i))))
				}
				cur = i
				continue
			}
			r := LookupResult{}
			if cur >= 0 && rc.keyEq(int(cur), int(i)) {
				r = LookupResult{Found: true, DTuple: rc.tuples[cur], DAnnot: rc.annots[cur]}
			}
			switch it := rc.item(int(i)); {
			case sp.pick == nil:
				emit(part, it, r)
			case sp.pick(r):
				part.Append(it.T, it.A)
			default:
				altPart.Append(it.T, it.A)
			}
		}
	})
	putSortScratch(sc)
	putRecCols(rc)
}

// verifyDistinctDirectory panics when the staged directory records carry a
// duplicate key. Only the empty-probe early-out needs it — the scan
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
		func(out *mpc.Columns, it mpc.Item, r LookupResult) {
			switch {
			case r.Found:
				out.Append(it.T, ring.Mul(it.A, r.DAnnot))
			case !dropMissing:
				out.Append(it.T, it.A)
			}
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
	d.C.ChargeCoordinator()
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
