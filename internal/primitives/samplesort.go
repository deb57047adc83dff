package primitives

import (
	"math"
	"math/bits"
	"slices"

	"repro/internal/mpc"
	"repro/internal/relation"
)

// The sample sort, columnar edition.
//
// The paper's skew-sensitive primitives sort their records globally by
// (key, tag) in one round — a sample sort with linear load — and cut the
// sorted order into p equal chunks. sortAndChop charges exactly that, one
// round through chopBounds, and computes the order with a serial stable
// radix sort that never moves a record: rankSort sorts an int32 rank vector
// (indices into the record columns). MultiNumbering, which scans rows in
// order, then permutes the key/tag/ref columns exactly once
// (sampleSortCols); the multi-search under every lookup and semi-join, and
// DistinctByKey, scan the rank vector and skip even that. Every scratch
// vector comes from the sort scratch pool.
//
// The radix sort is least significant digit first:
//
//  1. Tags. One sequential sweep checks whether the tag column is already
//     non-decreasing — every production caller stages its tag-0 records
//     before its tag-1 records — and then the identity is the tag order;
//     otherwise one counting pass by tag builds it.
//  2. Keys. For each key word, last to first, the word of every record is
//     gathered once, in the current rank order, into an 8-byte key vector
//     with the sign bit flipped, so unsigned byte order is signed value
//     order. That gather is the one random read per record and word. Each
//     byte that varies over the vector, low to high, is one sequential
//     scatter of (key word, row) pairs into the other key and rank vectors;
//     its counts come from the sweep before it (the gather counts the low
//     byte, each scatter the next varying byte), and a word's last scatter
//     moves rows alone. Constant bytes order nothing and are skipped.
//
// Every pass is stable, so the result is the unique stable (key, tag)
// permutation — the one the tests' serialSortAndChopRef produces — whatever
// the width, since nothing here forks. Splitting the records into key
// ranges sorted concurrently measured slower than this serial sort at every
// size from 2^12 to 2^19 records on a 2-vCPU VM, and forked byte passes
// with per-task histograms, prototyped, lost below 2^17 records, more than
// any record set the benchmark workloads stage.

// sortAndChop globally sorts the record columns by (key, tag) and
// distributes them into p equal chunks, charging each server its chunk size
// in one round (the paper's one-round sample sort with linear load). Chunk
// s is rows [bounds[s], bounds[s+1]) of rc; the bounds live in sc.
//
//lint:load perP
//lint:rounds const
func sortAndChop(c *mpc.Cluster, rc *recCols, sc *sortScratch) []int {
	sampleSortCols(rc, sc)
	return chopBounds(c, rc.len(), sc)
}

// sampleSortCols stable-sorts the record columns by (key, tag): the rank
// sort, then one permute per column, all through the pooled sc.
//
//lint:alloc-ceiling
func sampleSortCols(rc *recCols, sc *sortScratch) {
	if rc.len() < 2 {
		return
	}
	permuteCols(rc, sc, rankSort(rc, sc))
}

// rankSort returns the stable (key, tag) sort of rc as a rank vector —
// order[j] is the row that sorts j-th — without touching a column. The
// vector is a window of sc.
//
//lint:alloc-ceiling
func rankSort(rc *recCols, sc *sortScratch) []int32 {
	n := rc.len()
	sc.ranks = mpc.Resize(sc.ranks, 2*n)
	order, spare := sc.ranks[:n], sc.ranks[n:]
	if slices.IsSorted(rc.tags) {
		for i := range order {
			order[i] = int32(i)
		}
	} else {
		off := offsets(byteCounts(rc.tags, 0))
		for i, t := range rc.tags {
			order[off[t]] = int32(i)
			off[t]++
		}
	}
	if n < radixBelow {
		insertionSortIdx(rc, order)
		return order
	}
	return stableSortIdx(rc, sc, order, spare)
}

// permuteCols applies the sorted rank vector to every column in one pass
// per column, through the scratch's permute columns, which are swapped in
// (the record set's old columns become the next sort's scratch). A record
// moves as its key words, its tag and its ref: the row stays where it was
// staged.
//
//lint:alloc-ceiling
func permuteCols(rc *recCols, sc *sortScratch, order []int32) {
	n := len(order)
	kw := rc.kw
	ks := mpc.Resize(sc.keys, n*kw)
	ts := mpc.Resize(sc.tags, n)
	rs := mpc.Resize(sc.refs, n)
	for j, i := range order {
		ts[j] = rc.tags[i]
		rs[j] = rc.refs[i]
	}
	switch kw {
	case 0:
	case 1:
		for j, i := range order {
			ks[j] = rc.keys[i]
		}
	default:
		for j, i := range order {
			copy(ks[j*kw:j*kw+kw], rc.keys[int(i)*kw:int(i)*kw+kw])
		}
	}
	sc.keys, rc.keys = rc.keys[:0], ks
	sc.tags, rc.tags = rc.tags[:0], ts
	sc.refs, rc.refs = rc.refs[:0], rs
}

// radixBelow is the record count under which the rank sort is a plain
// insertion sort (measured crossover on one-word keys: about 20 records).
const radixBelow = 24

// stableSortIdx stable-sorts the rank vector src by the keys of the records
// it points at, through dst (len(dst) = len(src)), with a key-carrying LSD
// radix sort: the key words last to first, each gathered once in rank order
// (gatherWord) and sorted by its varying bytes (radixWord). The two key
// vectors are the permute columns keys and refs, dead until the permute;
// their types differ but share 64 bits underneath. Ties keep src's order, so
// a src stable by tag gives the stable (key, tag) sort. It ends in src or
// in dst depending on the pass count; the returned slice is whichever
// holds it.
//
//lint:alloc-ceiling
func stableSortIdx(rc *recCols, sc *sortScratch, src, dst []int32) []int32 {
	n := len(src)
	sc.keys, sc.refs = mpc.Resize(sc.keys, n), mpc.Resize(sc.refs, n)
	for w := rc.kw - 1; w >= 0; w-- {
		diff, low := gatherWord(sc.keys, rc.keys, rc.kw, w, src)
		src, dst = radixWord(sc.keys, sc.refs, src, dst, diff, low)
	}
	return src
}

// gatherWord writes word w of every record's key, in the rank order of
// order, into kv with the sign bit flipped, and returns the OR of every
// word's XOR with the first — its zero bytes are constant over the records
// — and the count of each value of the low byte, the first counting pass
// whenever that byte varies.
//
//lint:alloc-ceiling
func gatherWord(kv, keys []relation.Value, kw, w int, order []int32) (diff uint64, low [256]int32) {
	kv = kv[:len(order)]
	first := keys[int(order[0])*kw+w]
	for j, i := range order {
		k := keys[int(i)*kw+w]
		kv[j] = k ^ math.MinInt64
		low[uint8(k)]++
		diff |= uint64(k ^ first)
	}
	return diff, low
}

// radixWord stable-sorts the rank vector src by the key word kv holds for
// each of its entries: one scatter per byte set in diff, low to high, from
// src into dst and then swapping them. count holds the counts of the low
// byte's values. Each scatter but the last carries the key word along,
// into kb and back, and counts the next varying byte as it goes; the last
// moves rows alone, since the next word is gathered afresh. It returns the
// pair as it ends, sorted vector first.
//
//lint:alloc-ceiling
func radixWord(kv []relation.Value, kb []uint64, src, dst []int32, diff uint64, count [256]int32) ([]int32, []int32) {
	if diff == 0 {
		return src, dst
	}
	shift := uint(bits.TrailingZeros64(diff)) &^ 7
	if shift != 0 {
		count = byteCounts(kv, shift)
	}
	for inKV := true; ; inKV = !inKV {
		rest := diff >> shift >> 8
		if rest == 0 {
			if inKV {
				scatterRows(kv, src, dst, shift, count)
			} else {
				scatterRows(kb, src, dst, shift, count)
			}
			return dst, src
		}
		next := shift + 8 + uint(bits.TrailingZeros64(rest))&^7
		if inKV {
			count = scatterPairs(kv, src, kb, dst, shift, next, count)
		} else {
			count = scatterPairs(kb, src, kv, dst, shift, next, count)
		}
		src, dst = dst, src
		shift = next
	}
}

// byteCounts is a counting pass: how many keys carry each value of the
// byte at shift.
//
//lint:alloc-ceiling
func byteCounts[K ~uint8 | ~int64](keys []K, shift uint) [256]int32 {
	var count [256]int32
	for _, k := range keys {
		count[uint8(uint64(k)>>shift)]++
	}
	return count
}

// offsets turns per-byte counts into each byte value's first output slot.
func offsets(count [256]int32) [256]int32 {
	var sum int32
	for b, c := range count {
		count[b] = sum
		sum += c
	}
	return count
}

// scatterPairs moves every (key word, row) pair of (sk, si) to its slot in
// (dk, di) by the key byte at shift, stably, given that byte's counts, and
// returns the counts of the byte at next.
//
//lint:alloc-ceiling
func scatterPairs[S, D ~int64 | ~uint64](sk []S, si []int32, dk []D, di []int32, shift, next uint, count [256]int32) (nextCount [256]int32) {
	off := offsets(count)
	si = si[:len(sk)]
	for j, k := range sk {
		b := uint8(uint64(k) >> shift)
		nextCount[uint8(uint64(k)>>next)]++
		dk[off[b]], di[off[b]] = D(k), si[j]
		off[b]++
	}
	return nextCount
}

// scatterRows is scatterPairs without the key words or the next count.
//
//lint:alloc-ceiling
func scatterRows[K ~int64 | ~uint64](sk []K, si, di []int32, shift uint, count [256]int32) {
	off := offsets(count)
	si = si[:len(sk)]
	for j, k := range sk {
		b := uint8(uint64(k) >> shift)
		di[off[b]] = si[j]
		off[b]++
	}
}

// insertionSortIdx is a stable insertion sort: an index moves left only
// past strictly greater records.
//
//lint:alloc-ceiling
func insertionSortIdx(rc *recCols, a []int32) {
	for i := 1; i < len(a); i++ {
		x := a[i]
		j := i - 1
		for j >= 0 && rc.less(x, a[j]) {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = x
	}
}
