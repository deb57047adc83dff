package primitives

import (
	"math"
	"sort"

	"repro/internal/mpc"
	"repro/internal/relation"
	"repro/internal/runtime"
)

// The parallel sample sort, columnar edition.
//
// sortAndChop runs the paper's one-round sample sort for real on
// runtime.Fork — splitter sampling, parallel range partition, concurrent
// per-range sorts — but the sort itself never moves a record: rankSort
// sorts an int32 rank vector (indices into the record columns). Callers
// that scan rows in order (sampleSortCols) then permute the key/tag/tuple/
// annot columns exactly once; the semi-join scans the rank vector and
// skips even that. Every scratch vector comes from the record pool.
//
//  1. Splitters. A deterministic stride sample of the keys is sorted and
//     cut at regular positions into b−1 splitters (b = data-plane width),
//     oversampled so skewed key distributions still yield balanced ranges.
//     Splitters live in one flat fixed-width value buffer, like the keys.
//  2. Partition. The rank vector is cut into b contiguous segments; each
//     forked task classifies its segment's rows into key ranges (a binary
//     search over the flat splitter buffer with word-wise key compares —
//     a pure function of the key, so every occurrence of a key lands in
//     the same range) and counts per (segment, range). Prefix sums in
//     (range, segment) order then give every task a disjoint write window
//     per range, and a second forked pass scatters the indices —
//     lock-free, one pooled buffer.
//  3. Sort. Each range's index window is stable-sorted concurrently — an
//     LSD radix sort of the 4-byte indices by the bytes of (key, tag),
//     see stableSortIdx; ranges are contiguous and ordered, so the
//     concatenated rank vector is the globally sorted permutation.
//
// Determinism is structural, not incidental: within a range the scatter
// preserves global input order (segments are contiguous in input order and
// the write windows are prefix sums in segment order), so stable-sorting
// each range and concatenating yields exactly the unique stable sort by
// (key, tag) — the same permutation the tests' serialSortAndChopRef
// produces — for every width and every splitter choice.
// runtime.SetParallelism(1) and small inputs take the serial rank sort,
// which is byte-identical anyway.

// sampleSortSerialBelow is the record count under which the sort runs as a
// single sequential rank sort: splitter sampling and two extra passes cost
// more than they save, and the output is byte-identical either way.
const sampleSortSerialBelow = 1 << 12

// splitterOversample is the number of sampled keys per range; regular
// sampling at this rate keeps expected range sizes within a constant
// factor of n/b even on adversarial key distributions.
const splitterOversample = 8

// sortAndChop globally sorts the record columns by (key, tag) with the
// parallel sample sort and distributes them into p equal chunks, charging
// each server its chunk size in one round (the paper's one-round sample
// sort with linear load). Chunk s is rows [bounds[s], bounds[s+1]) of rc.
//
//lint:load perP
//lint:rounds const
func sortAndChop(c *mpc.Cluster, rc *recCols) []int {
	sampleSortCols(rc, runtime.Parallelism())
	return chopBounds(c, rc.len())
}

// sampleSortCols stable-sorts the record columns by (key, tag) with b
// partition tasks: the rank sort, then one permute per column. All scratch
// is one pooled sortScratch; only the splitter sample is allocated.
//
//lint:alloc-ceiling
func sampleSortCols(rc *recCols, b int) {
	if rc.len() < 2 {
		return
	}
	sc := getSortScratch()
	permuteCols(rc, sc, rankSort(rc, sc, b))
	putSortScratch(sc)
}

// rankSort returns the stable (key, tag) sort of rc as a rank vector —
// order[j] is the row that sorts j-th — computed with b partition tasks
// and without touching a column. The vector is a window of sc.
//
//lint:alloc-ceiling
func rankSort(rc *recCols, sc *sortScratch, b int) []int32 {
	n := rc.len()
	if b > n {
		b = n
	}
	sc.order = ensureSlice(sc.order, n)
	sc.ranges = ensureSlice(sc.ranges, n)
	order := sc.order

	if n < sampleSortSerialBelow || b <= 1 {
		for i := range order {
			order[i] = int32(i)
		}
		return stableSortIdx(rc, order, sc.ranges)
	}

	splitters, nsp := sampleSplitters(rc, b)
	nr := nsp + 1

	// Segment bounds: b contiguous segments in input order.
	segLo := func(t int) int { return t * n / b }

	// Counting pass: each task classifies its segment into ranges.
	ranges := sc.ranges
	sc.perTask = taskVecs(sc.perTask, b, nr)
	counts := sc.perTask
	runtime.Fork(b, func(t int) {
		cnt := counts[t]
		for i := range cnt {
			cnt[i] = 0
		}
		for i := segLo(t); i < segLo(t+1); i++ {
			r := searchSplitters(splitters, nsp, rc, i)
			ranges[i] = r
			cnt[r]++
		}
	})

	// Prefix sums in (range, segment) order: rangeStart bounds each range
	// in the rank vector; bases give each task its disjoint write window
	// per range, in segment order — global input order per range.
	rangeStart := make([]int, nr+1)
	sc.bases = taskVecs(sc.bases, b, nr)
	bases := sc.bases
	off := 0
	for r := 0; r < nr; r++ {
		rangeStart[r] = off
		for t := 0; t < b; t++ {
			bases[t][r] = int32(off)
			off += int(counts[t][r])
		}
	}
	rangeStart[nr] = off

	// Scatter pass: indices into disjoint pre-computed windows, no locks.
	// The per-task counters are dead after the prefix sums, so they double
	// as the write cursors.
	runtime.Fork(b, func(t int) {
		cur := counts[t]
		copy(cur, bases[t])
		for i := segLo(t); i < segLo(t+1); i++ {
			r := ranges[i]
			order[cur[r]] = int32(i)
			cur[r]++
		}
	})

	// Sort each range's index window concurrently. The ranges vector is
	// dead after the scatter, so its windows double as the radix buffers —
	// disjoint, no extra allocation, no locks.
	runtime.Fork(nr, func(r int) {
		lo, hi := rangeStart[r], rangeStart[r+1]
		if lo == hi {
			return
		}
		if sorted := stableSortIdx(rc, order[lo:hi], ranges[lo:hi]); &sorted[0] != &order[lo] {
			copy(order[lo:hi], sorted)
		}
	})
	return order
}

// permuteCols applies the sorted rank vector to every column in one pass
// per column, through the scratch's permute columns, which are swapped in
// (the record set's old columns become the next sort's scratch).
//
//lint:alloc-ceiling
func permuteCols(rc *recCols, sc *sortScratch, order []int32) {
	n := len(order)
	kw := rc.kw
	ks := ensureSlice(sc.keys, n*kw)
	ts := ensureSlice(sc.tags, n)
	tp := ensureSlice(sc.tuples, n)
	as := ensureSlice(sc.annots, n)
	for j, i := range order {
		ts[j] = rc.tags[i]
		tp[j] = rc.tuples[i]
		as[j] = rc.annots[i]
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
	sc.tuples, rc.tuples = rc.tuples[:0], tp
	sc.annots, rc.annots = rc.annots[:0], as
}

// radixBelow is the window length under which the rank sort is a plain
// insertion sort (measured crossover on one-word keys: about 20 records).
const radixBelow = 24

// stableSortIdx sorts the index vector a by the records it points at —
// rc.less, ties keeping input order — with a stable LSD radix sort through
// the caller-provided buffer (len(buf) ≥ len(a)): least significant first,
// the tag, then the key words last to first with the sign bit flipped so
// unsigned byte order is signed value order. Every pass is stable, so the
// result is the unique stable (key, tag) permutation, whichever sort
// computes it. It ends in a or in buf depending on the pass count; the
// returned slice is whichever holds it.
//
//lint:alloc-ceiling
func stableSortIdx(rc *recCols, a, buf []int32) []int32 {
	n := len(a)
	if n < radixBelow {
		insertionSortIdx(rc, a)
		return a
	}
	src, dst := radixWord(rc.tags, 1, 0, 0, a, buf[:n])
	for w := rc.kw - 1; w >= 0; w-- {
		src, dst = radixWord(rc.keys, rc.kw, w, math.MinInt64, src, dst)
	}
	return src
}

// radixWord stable-sorts src by word w of the stride-wide column col, flip
// XORed into every word first: one counting pass (256-entry table on the
// stack) per byte, low to high, from src into dst and then swapping them.
// A byte that is constant over src orders nothing and is skipped — one
// OR-of-XOR sweep finds them — so dense keys cost two or three passes. It
// returns the pair as it ends, sorted vector first.
//
//lint:alloc-ceiling
func radixWord[T ~uint8 | ~int64](col []T, stride, w int, flip T, src, dst []int32) ([]int32, []int32) {
	first := col[int(src[0])*stride+w]
	var diff uint64
	for _, i := range src {
		diff |= uint64(col[int(i)*stride+w] ^ first)
	}
	for shift := uint(0); diff>>shift != 0; shift += 8 {
		if diff>>shift&0xff == 0 {
			continue
		}
		var count [256]int32
		for _, i := range src {
			count[uint8(uint64(col[int(i)*stride+w]^flip)>>shift)]++
		}
		var off int32
		for b, c := range count {
			count[b] = off
			off += c
		}
		for _, i := range src {
			b := uint8(uint64(col[int(i)*stride+w]^flip) >> shift)
			dst[count[b]] = i
			count[b]++
		}
		src, dst = dst, src
	}
	return src, dst
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

// sampleSplitters returns at most b−1 sorted splitter keys cutting the key
// space into b near-equal ranges: a deterministic stride sample (no RNG,
// no seed — the same keys always yield the same splitters), sorted and
// cut at regular positions. The splitters come back as one flat
// fixed-width value buffer (rc.kw values per splitter) plus the splitter
// count. Duplicate splitters are collapsed; the ranges they would bound
// are empty anyway.
func sampleSplitters(rc *recCols, b int) ([]relation.Value, int) {
	n := rc.len()
	kw := rc.kw
	want := b * splitterOversample
	stride := n / want
	if stride < 1 {
		stride = 1
	}
	sample := make([]int32, 0, want+1)
	for i := 0; i < n; i += stride {
		sample = append(sample, int32(i))
	}
	// Rows with equal keys are interchangeable under this order, so the
	// unstable sort still cuts deterministic splitter values.
	sort.Slice(sample, func(x, y int) bool {
		return rc.keyLess(int(sample[x]), int(sample[y]))
	})
	flat := make([]relation.Value, 0, (b-1)*kw)
	nsp := 0
	for i := 1; i < b; i++ {
		row := int(sample[i*len(sample)/b])
		key := rc.key(row)
		if nsp > 0 && keyWindowEqual(flat[(nsp-1)*kw:nsp*kw], key) {
			continue
		}
		flat = append(flat, key...)
		nsp++
	}
	return flat, nsp
}

// searchSplitters returns the range index of row i: the number of
// splitters strictly less than the row's key — the flat-buffer equivalent
// of sort.SearchStrings over encoded keys (identical order, word-wise
// compares).
func searchSplitters(spl []relation.Value, nsp int, rc *recCols, i int) int32 {
	kw := rc.kw
	key := rc.keys[i*kw : i*kw+kw]
	lo, hi := 0, nsp
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if keyWindowLess(spl[mid*kw:mid*kw+kw], key) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return int32(lo)
}

// keyWindowLess is the strict lexicographic order on equal-width key
// windows — the same order the byte-string encoding produced.
func keyWindowLess(a, b []relation.Value) bool {
	for k := range a {
		if a[k] != b[k] {
			return a[k] < b[k]
		}
	}
	return false
}

// keyWindowEqual reports whether two equal-width key windows hold the same
// values.
func keyWindowEqual(a, b []relation.Value) bool {
	for k := range a {
		if a[k] != b[k] {
			return false
		}
	}
	return true
}
