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

// Int32Log stubs the pooled head log the local join kernel draws: it is
// released by its own Release method, called on the log.
type Int32Log struct{ S []int32 }

func GetInt32Log(n int) *Int32Log { return &Int32Log{S: make([]int32, 0, n)} }
func (l *Int32Log) Release()      {}

// logLeaksOnEarlyReturn releases the log at the end, but the early return
// between acquisition and release hands it to no one.
func logLeaksOnEarlyReturn(n int) int {
	log := GetInt32Log(n)
	log.S = append(log.S, 1)
	if n == 0 {
		return 0 // want `pooled buffer log leaks on this return`
	}
	m := len(log.S)
	log.Release()
	return m
}

// logNeverReleased acquires a log and forgets it.
func logNeverReleased(n int) int {
	log := GetInt32Log(n) // want `pooled buffer log is acquired but never released`
	return cap(log.S)
}

// logDeferred releases the log on every path, early returns included; the
// return inside the closure leaves only the closure.
func logDeferred(n int) int {
	log := GetInt32Log(n)
	defer log.Release()
	less := func(i, j int) bool { return log.S[i] < log.S[j] }
	if n == 0 || less(0, 0) {
		return 0
	}
	return len(log.S)
}

// joiner is a carrier for a log: its release method calls the log's
// Release, so handing the log to a joiner transfers ownership.
type joiner struct{ heads *Int32Log }

func (j *joiner) release() { j.heads.Release() }

func logCarrierHandoff(n int) int {
	heads := GetInt32Log(n)
	j := joiner{}
	j.heads = heads
	m := len(j.heads.S)
	j.release()
	return m
}

// int32EarlyReturn is the same early-return leak for a getInt32Zero slice.
func int32EarlyReturn(n int) int {
	v := getInt32Zero(n)
	if n > 8 {
		return n // want `pooled buffer v leaks on this return`
	}
	putInt32(v)
	return 0
}
