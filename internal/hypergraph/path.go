package hypergraph

import "repro/internal/relation"

// MinimalPath3 finds a minimal path of length 3: four distinct attributes
// (x1,x2,x3,x4) such that consecutive pairs co-occur in some edge while no
// edge contains {x1,x3}, {x1,x4}, or {x2,x4}. By Lemma 2, an acyclic join
// has such a path iff it is not r-hierarchical. It returns (path, true) if
// one exists. The search is exhaustive; query sizes are constants.
func (h *Hypergraph) MinimalPath3() ([4]relation.Attr, bool) {
	attrs := h.Attrs()
	coocc := func(a, b relation.Attr) bool {
		for _, e := range h.Edges {
			if e.Has(a) && e.Has(b) {
				return true
			}
		}
		return false
	}
	for _, x1 := range attrs {
		for _, x2 := range attrs {
			if x2 == x1 || !coocc(x1, x2) {
				continue
			}
			for _, x3 := range attrs {
				if x3 == x1 || x3 == x2 || !coocc(x2, x3) || coocc(x1, x3) {
					continue
				}
				for _, x4 := range attrs {
					if x4 == x1 || x4 == x2 || x4 == x3 {
						continue
					}
					if coocc(x3, x4) && !coocc(x1, x4) && !coocc(x2, x4) {
						return [4]relation.Attr{x1, x2, x3, x4}, true
					}
				}
			}
		}
	}
	return [4]relation.Attr{}, false
}
