package primitives

import (
	"repro/internal/mpc"
	"repro/internal/relation"
	"repro/internal/runtime"
)

// SumByKey aggregates annotations by key: it returns one item per distinct
// projection of d onto keyAttrs, annotated with the ring.Add-combination of
// all matching items' annotations.
//
// Local pre-aggregation (a combiner) runs before the shuffle, so each server
// sends at most one partial per local key and each receiver gets at most p
// partials per assigned key: load O(IN/p + p · keys/p) = O(IN/p) — the skew
// of the raw data never concentrates.
//
//lint:load perP trust the local combiner caps the shuffle at one partial per (server, key): O(IN/p + p) per receiver
//lint:rounds const
func SumByKey(d *mpc.Dist, keyAttrs []relation.Attr, ring relation.Semiring, salt uint64) *mpc.Dist {
	pos := d.Positions(keyAttrs)
	schema := relation.NewSchema(keyAttrs...)
	partials := localCombine(d, pos, schema, ring)
	shuffled := partials.ShuffleByKey(partials.Positions(keyAttrs), salt)
	return localCombine(shuffled, shuffled.Positions(keyAttrs), schema, ring)
}

// CountByKey returns the degree of every key: one item per distinct key,
// annotated with the number of matching items (annotations ignored — the
// sum runs over d's all-ones view, which shares d's value buffers).
//
//lint:load perP
//lint:rounds const
func CountByKey(d *mpc.Dist, keyAttrs []relation.Attr, salt uint64) *mpc.Dist {
	return SumByKey(d.MapAnnots(nil), keyAttrs, relation.CountRing, salt)
}

// localCombine aggregates per server: one output row per (server, key), in
// the order the keys first occur in the part. Keys are never built: the
// part is indexed by value (mpc.IndexRows), every row that opens a group
// folds its group's chain with ring.Add in row order, and the combined rows
// are written in place into one exactly-sized part. Servers combine
// concurrently, one task per part, each writing only its own output part.
//
//lint:alloc-ceiling
func localCombine(d *mpc.Dist, pos []int, schema relation.Schema, ring relation.Semiring) *mpc.Dist {
	out := mpc.NewDist(d.C, schema)
	runtime.Fork(len(d.Parts), func(s int) {
		part := &d.Parts[s]
		if part.Len() == 0 {
			return
		}
		ix := mpc.IndexRows(part, pos)
		dst := &out.Parts[s]
		dst.Reserve(len(pos), ix.Groups())
		for i := 0; i < part.Len(); i++ {
			if !ix.Opens(i) {
				continue
			}
			sum := ring.Zero
			for r := i; r >= 0; r = ix.Next(r) {
				sum = ring.Add(sum, part.Annot(r))
			}
			t, row := part.Tuple(i), dst.AppendRow(sum)
			for j, p := range pos {
				row[j] = t[p]
			}
		}
		ix.Release()
	})
	return out
}

// TotalCount returns the number of items, charging the coordinator tree:
// each server one partial count (load p at the coordinator), then a
// broadcast of the total (load 1 per server).
//
//lint:load const
//lint:rounds const
func TotalCount(d *mpc.Dist) int64 {
	n := int64(d.Size())
	d.C.ChargeCoordinator()
	return n
}
