// Package fixture exercises the repopoollifecycle analyzer: pooled buffers
// are owned by their acquiring function — released on every path, never
// escaping via return, field, or global — with ownership transferable to a
// carrier type that releases them.
package fixture

// recCols and the get/put pairs stub the repo's pool accessors; matching is
// by function name.
type recCols struct{ keys []int64 }

func (rc *recCols) append(k int64) { rc.keys = append(rc.keys, k) }

func getRecCols(n int) *recCols { return &recCols{keys: make([]int64, 0, n)} }
func putRecCols(rc *recCols)    {}

func getInt32Zero(n int) []int32 { return make([]int32, n) }
func putInt32(v []int32)         {}

type holder struct{ rc *recCols }

var leaked *recCols

// escapeViaReturn hands the pooled buffer to the caller — the shape of the
// recsToCols test-helper bug this analyzer exists to prevent.
func escapeViaReturn(n int) *recCols {
	rc := getRecCols(n)
	rc.append(1)
	return rc // want `pooled buffer rc escapes via return`
}

// escapeViaField parks the buffer in a struct that has no releasing method.
func escapeViaField(h *holder, n int) {
	rc := getRecCols(n)
	h.rc = rc // want `pooled buffer rc escapes into h.rc`
}

// escapeViaGlobal outlives everything.
func escapeViaGlobal(n int) {
	rc := getRecCols(n)
	leaked = rc // want `pooled buffer rc escapes into package-level state leaked`
}

// neverReleased acquires and forgets.
func neverReleased(n int) int {
	rc := getRecCols(n) // want `pooled buffer rc is acquired but never released`
	return len(rc.keys)
}

// deferredRelease is the standard shape: defer the put at acquisition.
func deferredRelease(n int) int {
	rc := getRecCols(n)
	defer putRecCols(rc)
	rc.append(2)
	return len(rc.keys)
}

// plan is a carrier: it owns pooled scratch and releases it, mirroring the
// exchange plan's release().
type plan struct{ scratch []int32 }

func (p *plan) release() { putInt32(p.scratch) }

// carrierHandoff transfers ownership to the carrier; the buffer may leave
// the function inside it because release() puts it back.
func carrierHandoff(n int) *plan {
	p := &plan{}
	v := getInt32Zero(n)
	p.scratch = v
	return p
}

// closureRelease releases through a local closure.
func closureRelease(n int) int {
	rc := getRecCols(n)
	release := func() { putRecCols(rc) }
	rc.append(3)
	m := len(rc.keys)
	release()
	return m
}

// selfFieldWrite mutates the owned buffer's own fields — not an escape.
func selfFieldWrite(n int) {
	rc := getRecCols(n)
	rc.keys = rc.keys[:0]
	putRecCols(rc)
}
