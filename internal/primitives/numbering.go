package primitives

import (
	"repro/internal/mpc"
	"repro/internal/relation"
)

// MultiNumbering assigns, within every key group, consecutive numbers
// 1, 2, 3, … to the items sharing that key (the paper's multi-numbering
// primitive [18]). The result has the input schema plus numberAttr appended.
//
// Sort-based: items are sorted by key and chopped into p chunks, each chunk
// numbers locally, and the offset of a key that spans a chunk boundary is
// resolved through one coordinator exchange (a key spans only consecutive
// chunks, so per-server boundary state is O(1)). Records go through the
// pooled columnar set — no per-call []rec rebuild.
//
//lint:load perP
//lint:rounds const
func MultiNumbering(d *mpc.Dist, keyAttrs []relation.Attr, numberAttr relation.Attr) *mpc.Dist {
	pos := d.Positions(keyAttrs)
	outSchema := append(append(relation.Schema{}, d.Schema...), numberAttr)
	if d.Size() == 0 {
		return mpc.NewDist(d.C, outSchema)
	}

	rc := getRecCols(d.Size())
	rc.appendDist(d, pos, 0)
	bounds := sortAndChop(d.C, rc)

	// offsets[s] = number of items with the same key as chunk s's first
	// record that appear in earlier chunks. Computed by the coordinator from
	// per-chunk (firstKey, lastKey, suffixCount) summaries: O(1) per server.
	// Keys live in the sorted flat buffer, so the running key is tracked as
	// a row index, compared word-wise.
	offsets := make([]int64, d.C.P)
	runRow, runCount := -1, int64(0)
	for s := 0; s < d.C.P; s++ {
		lo, hi := bounds[s], bounds[s+1]
		if lo == hi {
			continue
		}
		if runRow >= 0 && rc.keyEq(lo, runRow) {
			offsets[s] = runCount
		}
		// Update the running suffix count for the chunk's last key.
		last := hi - 1
		var suffix int64
		for i := hi - 1; i >= lo && rc.keyEq(i, last); i-- {
			suffix++
		}
		allSame := rc.keyEq(lo, last) && int(suffix) == hi-lo
		if runRow >= 0 && rc.keyEq(last, runRow) && rc.keyEq(lo, runRow) && allSame {
			runCount += suffix
		} else {
			runCount = suffix
		}
		runRow = last
	}
	chargeCoordinatorExchange(d.C)

	out := mpc.NewDist(d.C, outSchema)
	for s := 0; s < d.C.P; s++ {
		curRow := -1
		var n int64
		for i := bounds[s]; i < bounds[s+1]; i++ {
			if i == bounds[s] {
				curRow, n = i, offsets[s]
			} else if !rc.keyEq(i, curRow) {
				curRow, n = i, 0
			}
			n++
			src := rc.tuples[i]
			t := make(relation.Tuple, len(src)+1)
			copy(t, src)
			t[len(src)] = relation.Value(n)
			out.Parts[s].Append(t, rc.annots[i])
		}
	}
	putRecCols(rc)
	return out
}
