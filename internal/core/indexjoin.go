package core

import (
	"slices"

	"repro/internal/mpc"
	"repro/internal/relation"
)

// joinStage is one level of the per-server index nested-loop join: the rows
// of part whose key columns keyPos equal the output row's values at keyOut
// (bound by an earlier stage) extend the output row with their columns src,
// written to the output positions dst. The first stage of a join is the
// probe side: every row of its part takes part, and it has no key.
type joinStage struct {
	part     *mpc.Columns
	keyPos   []int
	keyOut   []int
	src, dst []int
}

// indexJoin is the one per-server join kernel behind BinaryJoin,
// MultiwayKeyedJoin, Triangle, Line3WorstCase and the r-hierarchical grid:
// it appends to out, rows of the given width, every combination of one
// row per stage in which each row matches the ones before it. The probe
// stage's rows are visited in source order (or in the given order), and
// each later stage's matches in their part's insertion order, innermost
// stage fastest — the order of the nested map-of-slices loops this kernel
// replaces. Annotations multiply left to right through ring.
//
// The kernel counts, reserves out exactly once, then fills: result rows are
// written in place into out's flat buffer and the stages are indexed by
// mpc.RowIndex, so a call allocates per stage, never per row. Each stage
// index is probed once per binding: the count pass logs every chain head it
// looks up, in visiting order, and the fill pass — which visits the same
// bindings in the same order — replays the log instead of hashing the keys
// again.
//
//lint:alloc-ceiling
func indexJoin(out *mpc.Columns, width int, stages []joinStage, order []int32, ring relation.Semiring) {
	for k := range stages {
		if stages[k].part.Len() == 0 {
			return
		}
	}
	// Every probe row looks up the first stage once: the log holds at least
	// one head per probe row, and exactly that with one stage.
	log := headLogPool.Get()
	j := indexJoiner{
		out:    out,
		probe:  stages[0],
		stages: stages[1:],
		idx:    make([]mpc.RowIndex, len(stages)-1),
		heads:  mpc.Resize(*log, stages[0].part.Len())[:0],
		bind:   make(relation.Tuple, width),
		ring:   ring,
	}
	for k, st := range j.stages {
		j.idx[k] = mpc.IndexRows(st.part, st.keyPos)
	}
	j.run(order)
	if j.n > 0 {
		out.Reserve(width, j.n)
		j.fill = true
		j.run(order)
	}
	for k := range j.idx {
		j.idx[k].Release()
	}
	*log = j.heads // the pool keeps the capacity the log grew to
	headLogPool.Put(log)
}

// headLogPool recycles indexJoin's head logs.
var headLogPool mpc.Pool[[]int32]

// indexJoiner is indexJoin's state: the stage indexes, the head log, the
// output row being bound, and which of the two passes is running.
type indexJoiner struct {
	out    *mpc.Columns
	probe  joinStage
	stages []joinStage // the stages after the probe
	idx    []mpc.RowIndex
	heads  []int32 // every First the count pass made, in visiting order (−1 for none)
	next   int     // the fill pass's read position in heads
	bind   relation.Tuple
	ring   relation.Semiring
	fill   bool
	n      int // result rows, counted by the first pass
}

// run makes one pass over the probe rows.
//
//lint:alloc-ceiling
func (j *indexJoiner) run(order []int32) {
	probe := j.probe.part
	for i := 0; i < probe.Len(); i++ {
		r := i
		if order != nil {
			r = int(order[i])
		}
		row := probe.Tuple(r)
		for c, p := range j.probe.src {
			j.bind[j.probe.dst[c]] = row[p]
		}
		j.extend(0, probe.Annot(r))
	}
}

// extend binds stages k… against the current output row and counts or
// writes each completed row. Local work only: no round, no load.
//
//lint:alloc-ceiling
//lint:load zero
//lint:rounds zero
func (j *indexJoiner) extend(k int, annot int64) {
	if k == len(j.stages) {
		if j.fill {
			copy(j.out.AppendRow(annot), j.bind)
		} else {
			j.n++
		}
		return
	}
	st := &j.stages[k]
	var r int
	if j.fill {
		r = int(j.heads[j.next])
		j.next++
	} else {
		r = j.idx[k].First(j.bind, st.keyOut)
		if len(j.heads) == cap(j.heads) {
			// Double: append grows a long slice by a quarter at a time.
			j.heads = slices.Grow(j.heads, len(j.heads))
		}
		j.heads = append(j.heads, int32(r))
		if k == len(j.stages)-1 {
			// Counting needs only the length of the innermost chain.
			for ; r >= 0; r = j.idx[k].Next(r) {
				j.n++
			}
			return
		}
	}
	for ; r >= 0; r = j.idx[k].Next(r) {
		row := st.part.Tuple(r)
		for c, p := range st.src {
			j.bind[st.dst[c]] = row[p]
		}
		a := annot
		if j.fill {
			a = j.ring.Mul(annot, st.part.Annot(r))
		}
		j.extend(k+1, a)
	}
}

// stagesAt returns a copy of stages in which stage i reads server s's part
// of ds[i] — the per-server binding of a stage list laid out once.
func stagesAt(stages []joinStage, ds []*mpc.Dist, s int) []joinStage {
	local := append([]joinStage(nil), stages...)
	for i := range local {
		local[i].part = &ds[i].Parts[s]
	}
	return local
}

// identityPos returns the positions 0 … n−1.
func identityPos(n int) []int {
	pos := make([]int, n)
	for i := range pos {
		pos[i] = i
	}
	return pos
}
