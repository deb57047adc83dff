package primitives

import (
	"repro/internal/mpc"
)

// Range is a half-open server interval [Lo, Hi) allocated to a subproblem.
type Range struct{ Lo, Hi int }

// Width returns the number of servers in the range.
func (r Range) Width() int { return r.Hi - r.Lo }

// AllocateServers implements the server-allocation primitive [18]: given a
// directory with one item per subproblem, annotated with the number of
// servers p(j) it needs, it assigns disjoint ranges [p1(j), p2(j)) with
// max_j p2(j) ≤ Σ_j p(j). Every server learns the full directory, which has
// O(#subproblems) entries — the callers guarantee #subproblems = O(p).
//
// The ranges come back in directory order (server-major, rows in part
// order): range j belongs to the j-th subproblem tuple.
//
//lint:load const trust callers guarantee O(p) subproblems, so the broadcast directory has O(p) entries
//lint:rounds const
func AllocateServers(dir *mpc.Dist) []Range {
	n := dir.Size()
	var all mpc.Columns
	out := make([]Range, 0, n)
	offset := 0
	for s := range dir.Parts {
		part := &dir.Parts[s]
		all.AppendColumns(part)
		for i := 0; i < part.Len(); i++ {
			w := int(part.Annot(i))
			if w < 1 {
				panic("primitives: AllocateServers non-positive width")
			}
			out = append(out, Range{Lo: offset, Hi: offset + w})
			offset += w
		}
	}
	whole := make([]int, all.Width())
	for i := range whole {
		whole[i] = i
	}
	ix := mpc.IndexRows(&all, whole)
	distinct := ix.Groups()
	ix.Release()
	if distinct != n {
		panic("primitives: AllocateServers duplicate subproblem key")
	}
	// Gather directory to the coordinator, then broadcast: every server
	// receives the whole directory.
	dir.C.Charge(0, n)
	loads := make([]int, dir.C.P)
	for i := range loads {
		loads[i] = n
	}
	dir.C.ChargeRound(loads)
	return out
}
