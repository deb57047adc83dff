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
	multiSearch(x, xKey, d, dKey, out, search{emit: emit})
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
	multiSearch(x, xKey, d, dKey, yes, search{pick: pick, alt: no})
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
	multiSearch(x, xKey, d, dKey, out, search{keep: true})
	return out
}

// AntiJoin returns the items of x with no matching key in d; rounds and
// load as SemiJoin.
//
//lint:load perP
//lint:rounds const
func AntiJoin(x *mpc.Dist, xKey []relation.Attr, d *mpc.Dist, dKey []relation.Attr) *mpc.Dist {
	out := mpc.NewDist(x.C, x.Schema)
	multiSearch(x, xKey, d, dKey, out, search{keep: false})
	return out
}

// search is what a multi-search does with each x item once it knows
// whether d holds the item's key. At most one of emit and pick is set:
// emit (Lookup) appends what the item becomes; pick (SplitLookup) sends
// the item whole to out when pick holds and to alt otherwise. With
// neither, the search is a semi-join (keep) or an anti-join (!keep): the
// item lands whole in out when its found equals keep.
type search struct {
	emit func(out *mpc.Columns, it mpc.Item, r LookupResult)
	pick func(r LookupResult) bool
	alt  *mpc.Dist
	keep bool
}

// multiSearch is the paper's multi-search, the one scan under Lookup,
// SplitLookup, SemiJoin and AntiJoin: every x item learns whether d holds
// its key, and sr decides what it becomes in its server's part of the
// caller's empty out (the caller allocates it: results the forked scan
// captured would be moved to the heap, two allocations a call). d records
// sort before x records of the same key, so "found" is "the nearest
// preceding d record has my key". d is staged whole, x after it, into one
// record set that names rows instead of copying them, which is rank-sorted
// once; nothing is permuted. A directory (Lookup, SplitLookup) must be
// distinct, and the scan sees a key held twice on one server. Otherwise d
// may hold duplicates (the semi-join), and the uncharged local combiner
// runs on the sorted order: of each (server, key) group of d only the
// opening record stays in the rank vector (recCols.openers), so the sort
// round carries at most one d record per (server, key). The vector is cut
// into p chunks; a chunk is a window of it, scanned as i := order[j].
// What crosses a chunk boundary is one record, the d record opening the
// run the previous chunk ends in: the coordinator exchange, charged before
// the scan, hands it over, and each chunk's task finds it by binary search
// (d records lead their run). The chunks are scanned concurrently, task s
// appending only to its own output part, which it first reserves once for
// one row per x record of its window, so a part that the scan fills with
// at most a row per item never grows by doubling. Equal-key d records are
// adjacent in the scan, or the first of a chunk meets its twin as the
// carry, so the scan doubles as the directory's duplicate check. Only the
// rows the scan hands on are read from their parts: a semi-join copies
// each kept x row straight from its part, a lookup decodes the x item and
// its d match for emit or pick.
//
//lint:load perP
//lint:rounds const
func multiSearch(x *mpc.Dist, xKey []relation.Attr, d *mpc.Dist, dKey []relation.Attr, out *mpc.Dist, sr search) {
	directory := sr.emit != nil || sr.pick != nil
	// An empty probe side is empty output and pays no rounds; only a
	// directory is staged, to check it for duplicate keys.
	if x.Size() == 0 && !directory {
		return
	}
	xPos, dPos := x.Positions(xKey), d.Positions(dKey)

	rc := getRecCols(x.Size() + d.Size())
	rc.appendDist(d, dPos, 0)
	if x.Size() == 0 {
		verifyDistinctDirectory(rc)
		putRecCols(rc)
		return
	}
	rc.appendDist(x, xPos, 1)

	sc := getSortScratch()
	order := rankSort(rc, sc)
	if !directory {
		order = rc.openers(order)
	}
	bounds := chopBounds(x.C, len(order), sc)
	x.C.ChargeCoordinator()

	runtime.Fork(x.C.P, func(s int) {
		lo := bounds[s]
		window := order[lo:bounds[s+1]]
		xs := 0
		for _, i := range window {
			xs += int(rc.tags[i])
		}
		w := len(out.Schema)
		part := &out.Parts[s]
		part.Reserve(w, xs)
		var altPart *mpc.Columns
		if sr.alt != nil {
			altPart = &sr.alt.Parts[s]
			altPart.Reserve(w, xs)
		}
		// cur = the d record opening the run that the record before the
		// window belongs to, −1 when that run has none (or nothing
		// precedes the window).
		cur := int32(-1)
		if lo > 0 && len(window) > 0 {
			end := order[lo-1]
			run := order[sort.Search(lo, func(j int) bool { return !rc.keyLess(int(order[j]), int(end)) })]
			if rc.tags[run] == 0 {
				cur = run
			}
		}
		for _, i := range window {
			if rc.tags[i] == 0 {
				if directory && cur >= 0 && rc.keyEq(int(cur), int(i)) {
					panic(fmt.Sprintf("primitives: Lookup directory has duplicate key %v", rc.key(int(i))))
				}
				cur = i
				continue
			}
			found := cur >= 0 && rc.keyEq(int(cur), int(i))
			if !directory {
				if found == sr.keep {
					src, r := rc.row(int(i))
					part.Append(src.Tuple(r), src.Annot(r))
				}
				continue
			}
			r := LookupResult{}
			if found {
				dp, dr := rc.row(int(cur))
				r = LookupResult{Found: true, DTuple: dp.Tuple(dr), DAnnot: dp.Annot(dr)}
			}
			switch it := rc.item(int(i)); {
			case sr.pick == nil:
				sr.emit(part, it, r)
			case sr.pick(r):
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
	sc := getSortScratch()
	sampleSortCols(rc, sc)
	putSortScratch(sc)
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
	// Local dedup first (the uncharged combiner, on the sorted order): at
	// most one record per (server, key) reaches the sort round. A record's
	// key column entry is the kept projection itself, so nothing is built
	// per key.
	rc := getRecCols(d.Size())
	rc.appendDist(d, pos, 0)
	sc := getSortScratch()
	order := rc.openers(rankSort(rc, sc))
	bounds := chopBounds(d.C, len(order), sc)
	// Cross-chunk dedup: each server drops its first run if the previous
	// chunk ends with the same key (boundary info via coordinator). Equal
	// keys are adjacent after the sort, so the previously kept record is
	// all the boundary state needed.
	d.C.ChargeCoordinator()
	out := mpc.NewDist(d.C, schema)
	prev := -1
	for s := 0; s < d.C.P; s++ {
		for _, i := range order[bounds[s]:bounds[s+1]] {
			if prev >= 0 && rc.keyEq(prev, int(i)) {
				continue
			}
			src, r := rc.row(int(i))
			out.Parts[s].Append(rc.key(int(i)), src.Annot(r))
			prev = int(i)
		}
	}
	putSortScratch(sc)
	putRecCols(rc)
	return out
}
