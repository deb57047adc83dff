package mpc

import (
	"math"
	"math/bits"

	"repro/internal/relation"
)

// RowIndex is a value-keyed hash index over the rows of one Columns: rows
// are grouped by their projection onto a fixed list of key columns and
// addressed by row number, so a local join walks flat buffers and int32
// chains — no key string, no per-row Item, no per-key slice. The table is
// open-addressed (linear probing over a power-of-two slot array, at most
// half full). Keys are hashed straight off the flat buffer by slotHash, a
// word-wise multiply mixer private to the index: unlike the routing hashes
// (HashTupleAt and friends, whose destinations the golden tables pin), its
// values never reach a caller, so it is free to change. A probe compares
// keys word-wise against the head row of each occupied slot it visits.
// Rows with equal keys are chained through next in insertion order, so
// iterating a group visits its rows exactly as the map-of-slices joins this
// replaces did.
//
// Both arrays come from the exchange's int32 pool; Release returns them. A
// built index is read-only and safe for concurrent lookups.
type RowIndex struct {
	cols   *Columns
	pos    []int
	slots  []int32 // slot → first row of its group + 1; 0 = empty
	next   []int32 // row → next row with the same key + 1 (0 ends the chain), | displaced
	groups int     // distinct keys
}

// displaced is the sign bit of a next entry: set on a row when an earlier
// row with the same key took its place as the head of the group, so the
// rows that open a group are exactly the ones without it.
const displaced = math.MinInt32

// slotSeed and slotMul drive slotHash: per key word, the state is xored
// with the word and multiplied by the odd constant slotMul into 128 bits,
// whose halves fold back together. The nonzero seed keeps small words
// from multiplying a near-zero state.
const (
	slotSeed = 0xe7037ed1a0b428db
	slotMul  = 0x9e3779b97f4a7c15
)

// slotHash hashes t's projection onto pos for the slot table: its low bits
// pick the home slot. The low bits of a folded product move little between
// keys that differ only in high bits (strided keys), so the last step xors
// the high half into them.
func slotHash(t relation.Tuple, pos []int) uint64 {
	h := uint64(slotSeed)
	for _, p := range pos {
		hi, lo := bits.Mul64(h^uint64(t[p]), slotMul)
		h = hi ^ lo
	}
	return h ^ h>>32
}

// IndexRows builds the index of cols keyed by the columns pos. An empty
// pos puts every row in one group (the keyless cross product).
//
//lint:alloc-ceiling
func IndexRows(cols *Columns, pos []int) RowIndex {
	n := cols.Len()
	size := 2
	for size < 2*n {
		size <<= 1
	}
	ix := RowIndex{cols: cols, pos: pos, slots: getInt32Zero(size), next: getInt32Cap(n)[:n]}
	// Rows are inserted last to first, each becoming the head of its
	// group, so every chain ends up in ascending (insertion) order.
	for i := n - 1; i >= 0; i-- {
		slot := ix.find(cols.Tuple(i), pos)
		head := ix.slots[slot]
		if head == 0 {
			ix.groups++
		} else {
			ix.next[head-1] |= displaced
		}
		ix.next[i] = head
		ix.slots[slot] = int32(i) + 1
	}
	return ix
}

// Groups returns the number of distinct keys.
func (ix *RowIndex) Groups() int { return ix.groups }

// Opens reports whether row i is the first row of its group — one load: the
// build recorded which rows were displaced. Scanning the rows for the ones
// that open a group visits the groups in first-occurrence order: the hash
// order of the slots never reaches a caller.
func (ix *RowIndex) Opens(i int) bool { return ix.next[i] >= 0 }

// find returns the slot holding the group whose key equals t's projection
// onto pos, or the empty slot where that group would go. It writes
// nothing: lookups on a built index run concurrently.
func (ix *RowIndex) find(t relation.Tuple, pos []int) int {
	mask := len(ix.slots) - 1
	slot := int(slotHash(t, pos)) & mask
	for ; ix.slots[slot] != 0; slot = (slot + 1) & mask {
		head := ix.cols.Tuple(int(ix.slots[slot]) - 1)
		equal := true
		for k, p := range ix.pos {
			if head[p] != t[pos[k]] {
				equal = false
				break
			}
		}
		if equal {
			break
		}
	}
	return slot
}

// First returns the first row whose key equals t's projection onto pos
// (aligned with the index's key columns), or −1 when there is none.
func (ix *RowIndex) First(t relation.Tuple, pos []int) int {
	return int(ix.slots[ix.find(t, pos)]) - 1
}

// Next returns the row after i in its group's insertion order, or −1.
func (ix *RowIndex) Next(i int) int { return int(ix.next[i]&^displaced) - 1 }

// Release recycles the index's arrays; the index must not be used after.
func (ix *RowIndex) Release() {
	putInt32(ix.slots)
	putInt32(ix.next)
	ix.slots, ix.next = nil, nil
}
