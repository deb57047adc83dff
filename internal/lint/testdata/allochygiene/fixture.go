// Package fixture exercises the repoallochygiene analyzer: functions whose
// doc comment carries the lint:alloc-ceiling marker (meaning an
// AllocsPerRun regression test holds their allocation count to a fixed
// ceiling) must not allocate inside loops, and no function, marked or not,
// may build a key string.
package fixture

// hotLoop allocates per item on a ceilinged path.
//
//lint:alloc-ceiling
func hotLoop(n int, out [][]int) {
	for i := 0; i < n; i++ {
		buf := make([]int, 4) // want `make inside a loop in hotLoop`
		out[i] = buf
	}
}

// hotRange covers new and composite literals under a range loop.
//
//lint:alloc-ceiling
func hotRange(xs []int, sink func(interface{})) {
	for range xs {
		sink(new(int))    // want `new inside a loop in hotRange`
		sink([]int{1, 2}) // want `slice/map literal inside a loop in hotRange`
	}
}

// hotForked keeps the loop depth through a forked closure: the closure's
// loops run per task, so its allocations scale the same way.
//
//lint:alloc-ceiling
func hotForked(fork func(int, func(int)), out [][]byte) {
	fork(len(out), func(task int) {
		for i := range out[task] {
			out[task][i] = byte(len(make([]byte, 1))) // want `make inside a loop in hotForked`
		}
	})
}

// hotSetup allocates only outside loops: per-call setup is priced into the
// ceiling.
//
//lint:alloc-ceiling
func hotSetup(n int) []int {
	buf := make([]int, n)
	for i := range buf {
		buf[i] = i
	}
	return buf
}

// coldLoop has no marker, so per-item allocation is its own business.
func coldLoop(n int) [][]int {
	var out [][]int
	for i := 0; i < n; i++ {
		out = append(out, make([]int, 4))
	}
	return out
}

// KeyAt, EncodeTuple and EncodeValues stub the relation package's key
// encoders; the analyzer matches by name and string result.
func KeyAt(t []int64, pos []int) string { return "" }
func EncodeTuple(t []int64) string      { return "" }
func EncodeValues(vs ...int64) string   { return "" }

// stringKeyed groups rows through a map of encoded keys: one string per
// row, marker or no marker.
func stringKeyed(rows [][]int64, pos []int) int {
	seen := map[string]bool{}
	for _, t := range rows {
		seen[KeyAt(t, pos)] = true      // want `KeyAt builds a key string per call in a data-plane package`
		seen[EncodeTuple(t)] = true     // want `EncodeTuple builds a key string per call`
		seen[EncodeValues(t[0])] = true // want `EncodeValues builds a key string per call`
	}
	return len(seen)
}

// oracleKeyed is the vetted exception: a sequential reference keeps its
// string keys and says why.
func oracleKeyed(rows [][]int64, pos []int) int {
	seen := map[string]bool{}
	for _, t := range rows {
		//lint:ignore repoallochygiene sequential reference
		seen[KeyAt(t, pos)] = true
	}
	return len(seen)
}

type table struct{}

// KeyAt the method returns no string; keyAt the helper has another name.
func (table) KeyAt(i int) []int64 { return nil }
func keyAt(t []int64) string      { return "" }

// wordKeyed is the blessed shape: same names on other shapes stay silent.
func wordKeyed(tb table, rows [][]int64) int {
	n := 0
	for i, t := range rows {
		n += len(tb.KeyAt(i)) + len(keyAt(t))
	}
	return n
}
