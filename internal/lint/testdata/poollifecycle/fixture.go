// Package fixture exercises the repopoollifecycle analyzer: pooled buffers
// are owned by their acquiring function — released on every path, never
// escaping via return, field, or global — with ownership transferable to a
// carrier type that releases them.
package fixture

// recCols, Pool and the get/put pairs stub the repo's pool accessors;
// matching is by function name, a method's as Type.Method.
type recCols struct{ keys []int64 }

func (rc *recCols) append(k int64) { rc.keys = append(rc.keys, k) }

func getRecCols(n int) *recCols { return &recCols{keys: make([]int64, 0, n)} }
func putRecCols(rc *recCols)    {}

// Pool stubs mpc.Pool: an accessor's own body hands buffers over by design.
type Pool[T any] struct{}

func (p *Pool[T]) Get() *T  { return new(T) }
func (p *Pool[T]) Put(v *T) {}

var int32s Pool[[]int32]

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
type plan struct{ scratch *[]int32 }

func (p *plan) release() { int32s.Put(p.scratch) }

// carrierHandoff transfers ownership to the carrier; the buffer may leave
// the function inside it because release() puts it back.
func carrierHandoff(n int) *plan {
	p := &plan{}
	v := int32s.Get()
	p.scratch = v
	return p
}

// carrierFieldGet acquires straight into a carrier's field.
func carrierFieldGet() *plan {
	p := &plan{}
	p.scratch = int32s.Get()
	return p
}

// carrierLiteral acquires inside a composite literal of a carrier type,
// as mpc.IndexRows builds a RowIndex: the literal owns the buffer.
func carrierLiteral() plan {
	return plan{scratch: int32s.Get()}
}

// carrierPositional is the same with a positional element.
func carrierPositional() plan {
	return plan{int32s.Get()}
}

// varDeclared holds the buffer in a var-declared local.
func varDeclared(n int) int {
	var log = int32s.Get()
	defer int32s.Put(log)
	return len(*log) + n
}

// view holds a pooled buffer but has no method that releases it.
type view struct{ scratch *[]int32 }

// literalLeak acquires inside a composite literal of a type that never
// releases it: nothing can put the buffer back.
func literalLeak(n int) int {
	v := view{scratch: int32s.Get()} // want `pooled buffer is held by no local and no carrier`
	return len(*v.scratch) + n
}

// argumentLeak hands a fresh acquisition to a call, and derefLeak drops
// the box it came in: neither can be released.
func argumentLeak() int {
	return len(*int32s.Get()) // want `pooled buffer is held by no local and no carrier`
}

func derefLeak(n int) []int32 {
	s := *int32s.Get() // want `pooled buffer is held by no local and no carrier`
	return s[:n]
}

// getScratch wraps a Get without joining the pair table: its callers would
// own a buffer the analyzer cannot see, so the wrapper is an escape.
func getScratch() *[]int32 {
	return int32s.Get() // want `pooled buffer is held by no local and no carrier`
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

// logLeaksOnEarlyReturn releases the log at the end, but the early return
// between acquisition and release hands it to no one.
func logLeaksOnEarlyReturn(n int) int {
	log := int32s.Get()
	*log = append(*log, 1)
	if n == 0 {
		return 0 // want `pooled buffer log leaks on this return`
	}
	m := len(*log)
	int32s.Put(log)
	return m
}

// logNeverReleased acquires a log and forgets it.
func logNeverReleased(n int) int {
	log := int32s.Get() // want `pooled buffer log is acquired but never released`
	return cap(*log) + n
}

// logDeferred releases the log on every path, early returns included; the
// return inside the closure leaves only the closure.
func logDeferred(n int) int {
	log := int32s.Get()
	defer int32s.Put(log)
	less := func(i, j int) bool { return (*log)[i] < (*log)[j] }
	if n == 0 || less(0, 0) {
		return 0
	}
	return len(*log)
}

// joiner is a carrier for a log: its release method puts the log, so
// handing the log to a joiner transfers ownership.
type joiner struct{ heads *[]int32 }

func (j *joiner) release() { int32s.Put(j.heads) }

func logCarrierHandoff(n int) int {
	heads := int32s.Get()
	j := joiner{}
	j.heads = heads
	m := len(*j.heads) + n
	j.release()
	return m
}

// logCarrierLiteral hands a held log to a carrier literal.
func logCarrierLiteral() int {
	heads := int32s.Get()
	j := joiner{heads: heads}
	m := len(*j.heads)
	j.release()
	return m
}
