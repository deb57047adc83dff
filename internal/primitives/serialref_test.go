package primitives

// The serial reference for the sample sort — the pre-parallel coordinator
// sort over an array-of-structs record view — and the bridge that stages
// its records into the columnar set; and the string-keyed references for
// the aggregation side (sum-by-key, count-by-key, distinct-by-key as they
// were before keys became windows into flat parts); the serial lookup that
// the forked multi-search scan replaced; and the two-sort semi-join (a
// distinct directory, then that lookup) that the one-sort scan replaced.
// Test-only: the parity, fuzz and benchmark tests compare the production
// paths against them.

import (
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/mpc"
	"repro/internal/relation"
)

// rec is the array-of-structs record view the serial reference sorts: a
// key, a tie-break tag (d-side records sort before x-side records of the
// same key), and the carried item.
type rec struct {
	key string
	tag uint8
	it  mpc.Item
}

// recLess is the record order of every skew-sensitive primitive: by key,
// ties broken by tag. recCols.less is the columnar form; the serial
// reference and the rank sort must agree on it exactly.
func recLess(a, b rec) bool {
	if a.key != b.key {
		return a.key < b.key
	}
	return a.tag < b.tag
}

// chop is chopBounds over a []rec slice, returning chunk windows.
func chop(c *mpc.Cluster, recs []rec) [][]rec {
	bounds := chopBounds(c, len(recs))
	chunks := make([][]rec, c.P)
	for s := 0; s < c.P; s++ {
		if bounds[s] < bounds[s+1] {
			chunks[s] = recs[bounds[s]:bounds[s+1]]
		}
	}
	return chunks
}

// serialSortAndChopRef is the pre-parallel coordinator sort, kept verbatim
// as the parity, fuzz and benchmark reference: sortAndChop must produce
// value-identical chunks and identical charges at every data-plane width
// and with the record pool on or off.
func serialSortAndChopRef(c *mpc.Cluster, recs []rec) [][]rec {
	sort.SliceStable(recs, func(i, j int) bool { return recLess(recs[i], recs[j]) })
	return chop(c, recs)
}

// append adds one record from an encoded key string — the bridge that
// stages records from the array-of-structs rec view into the columns. The
// key decodes (relation.EncodeValues' inverse, in place: the allocation
// ceiling tests stage through here) to exactly the value window appendKeyed
// would have written.
func (rc *recCols) append(key string, tag uint8, t relation.Tuple, a int64) {
	if len(key)%8 != 0 {
		panic("primitives: malformed record key")
	}
	rc.adoptKeyWidth(len(key) / 8)
	for i := 0; i < len(key); i += 8 {
		rc.keys = append(rc.keys, relation.Value(binary.BigEndian.Uint64([]byte(key[i:i+8]))^(1<<63)))
	}
	rc.tags = append(rc.tags, tag)
	rc.tuples = append(rc.tuples, t)
	rc.annots = append(rc.annots, a)
}

// localCombineRef is the string-keyed combiner localCombine replaced, kept
// verbatim: two maps over relation.KeyAt, one projected tuple per key,
// output in first-occurrence order.
func localCombineRef(d *mpc.Dist, pos []int, schema relation.Schema, ring relation.Semiring) *mpc.Dist {
	out := mpc.NewDist(d.C, schema)
	for s := range d.Parts {
		part := &d.Parts[s]
		agg := make(map[string]int64, part.Len())
		repr := make(map[string]relation.Tuple, part.Len())
		var order []string
		for i := 0; i < part.Len(); i++ {
			t := part.Tuple(i)
			k := relation.KeyAt(t, pos)
			if _, ok := agg[k]; !ok {
				agg[k] = ring.Zero
				proj := make(relation.Tuple, len(pos))
				for j, p := range pos {
					proj[j] = t[p]
				}
				repr[k] = proj
				order = append(order, k)
			}
			agg[k] = ring.Add(agg[k], part.Annot(i))
		}
		for _, k := range order {
			out.Parts[s].Append(repr[k], agg[k])
		}
	}
	return out
}

// sumByKeyRef is SumByKey over localCombineRef.
func sumByKeyRef(d *mpc.Dist, keyAttrs []relation.Attr, ring relation.Semiring, salt uint64) *mpc.Dist {
	pos := d.Positions(keyAttrs)
	schema := relation.NewSchema(keyAttrs...)
	partials := localCombineRef(d, pos, schema, ring)
	shuffled := partials.ShuffleByKey(partials.Positions(keyAttrs), salt)
	return localCombineRef(shuffled, shuffled.Positions(keyAttrs), schema, ring)
}

// countByKeyRef is CountByKey as it was: a copy of d with every annotation
// rewritten to 1 through a per-row MapLocal closure, then summed.
func countByKeyRef(d *mpc.Dist, keyAttrs []relation.Attr, salt uint64) *mpc.Dist {
	ones := d.MapLocal(d.Schema, func(_ int, it mpc.Item) []mpc.Item {
		return []mpc.Item{{T: it.T, A: 1}}
	})
	return sumByKeyRef(ones, keyAttrs, relation.CountRing, salt)
}

// distinctByKeyRef is DistinctByKey with the string-keyed local dedup it
// had: a seen-map over the encoded key per part and one projected tuple
// per locally-distinct key, staged as a self-keyed record.
func distinctByKeyRef(d *mpc.Dist, keyAttrs []relation.Attr) *mpc.Dist {
	pos := d.Positions(keyAttrs)
	schema := relation.NewSchema(keyAttrs...)
	if d.Size() == 0 {
		return mpc.NewDist(d.C, schema)
	}
	rc := getRecCols(d.Size())
	for s := range d.Parts {
		part := &d.Parts[s]
		seen := make(map[string]bool)
		for i := 0; i < part.Len(); i++ {
			t := part.Tuple(i)
			k := relation.KeyAt(t, pos)
			if seen[k] {
				continue
			}
			seen[k] = true
			proj := make(relation.Tuple, len(pos))
			for j, p := range pos {
				proj[j] = t[p]
			}
			rc.append(k, 0, proj, part.Annot(i))
		}
	}
	bounds := sortAndChop(d.C, rc)
	chargeCoordinatorExchange(d.C)
	out := mpc.NewDist(d.C, schema)
	prev := -1
	for s := 0; s < d.C.P; s++ {
		for i := bounds[s]; i < bounds[s+1]; i++ {
			if prev >= 0 && rc.keyEq(prev, i) {
				continue
			}
			out.Parts[s].Append(rc.tuples[i], rc.annots[i])
			prev = i
		}
	}
	putRecCols(rc)
	return out
}

// lookupRef is Lookup as it was before it ran on the forked multi-search
// scan, kept verbatim: a permuting sort of x and d together, a serial scan
// carrying the last d record across chunk boundaries (which doubles as the
// duplicate-directory check), then a serial output loop that copies each
// kept item before combine is called again.
func lookupRef(x *mpc.Dist, xKey []relation.Attr, d *mpc.Dist, dKey []relation.Attr,
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

// semiJoinRef is SemiJoin as it was before the one-sort multi-search, kept
// verbatim: d reduced to a globally distinct directory (one sort, one
// coordinator exchange), then a lookup of x against it (another of each).
func semiJoinRef(x *mpc.Dist, xKey []relation.Attr, d *mpc.Dist, dKey []relation.Attr) *mpc.Dist {
	// An empty probe side is empty output; don't pay for sorting the
	// directory either.
	if x.Size() == 0 {
		return mpc.NewDist(x.C, x.Schema)
	}
	dir := DistinctByKey(d, dKey)
	return lookupRef(x, xKey, dir, dKey, x.Schema,
		func(it mpc.Item, r LookupResult) (mpc.Item, bool) {
			return it, r.Found
		})
}

// antiJoinRef is AntiJoin as it was, likewise.
func antiJoinRef(x *mpc.Dist, xKey []relation.Attr, d *mpc.Dist, dKey []relation.Attr) *mpc.Dist {
	if x.Size() == 0 {
		return mpc.NewDist(x.C, x.Schema)
	}
	dir := DistinctByKey(d, dKey)
	return lookupRef(x, xKey, dir, dKey, x.Schema,
		func(it mpc.Item, r LookupResult) (mpc.Item, bool) {
			return it, !r.Found
		})
}
