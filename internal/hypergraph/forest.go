package hypergraph

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/relation"
)

// AttrForest is the attribute forest of a hierarchical query (Section 1.4,
// Figure 2): attribute x is a descendant of y iff E_x ⊆ E_y. Attributes with
// identical edge sets are chained deterministically by attribute id.
type AttrForest struct {
	Attrs    []relation.Attr // node i is attribute Attrs[i]
	Parent   []int           // parent node index, -1 for roots
	Children [][]int
	Roots    []int
	index    map[relation.Attr]int
}

// AttributeForest builds the attribute forest of h, which must be
// hierarchical (it panics otherwise: callers classify first).
func (h *Hypergraph) AttributeForest() *AttrForest {
	if !h.IsHierarchical() {
		panic("hypergraph: AttributeForest on non-hierarchical query")
	}
	attrs := h.Attrs()
	f := &AttrForest{
		Attrs:    []relation.Attr(attrs),
		Parent:   make([]int, len(attrs)),
		Children: make([][]int, len(attrs)),
		index:    make(map[relation.Attr]int, len(attrs)),
	}
	edgeSets := make([][]int, len(attrs))
	for i, a := range attrs {
		f.index[a] = i
		edgeSets[i] = h.EdgesWith(a)
	}
	// strictlyAbove(j, i): attribute j is a proper ancestor candidate of i.
	// E_j ⊃ E_i, or E_j = E_i with j's id smaller (deterministic chaining).
	strictlyAbove := func(j, i int) bool {
		if i == j {
			return false
		}
		if !intSubset(edgeSets[i], edgeSets[j]) {
			return false
		}
		if len(edgeSets[i]) == len(edgeSets[j]) {
			return attrs[j] < attrs[i]
		}
		return true
	}
	for i := range attrs {
		// Candidates form a ⊇-chain in a hierarchical query; the parent is
		// the minimal one (smallest edge set, then largest attribute id).
		best := -1
		for j := range attrs {
			if !strictlyAbove(j, i) {
				continue
			}
			if best < 0 || strictlyAbove(best, j) {
				best = j
			}
		}
		f.Parent[i] = best
		if best >= 0 {
			f.Children[best] = append(f.Children[best], i)
		} else {
			f.Roots = append(f.Roots, i)
		}
	}
	return f
}

// Node returns the node index of attribute a, or -1.
func (f *AttrForest) Node(a relation.Attr) int {
	i, ok := f.index[a]
	if !ok {
		return -1
	}
	return i
}

// Ancestors returns a and its proper ancestors, bottom-up.
func (f *AttrForest) Ancestors(a relation.Attr) []relation.Attr {
	var out []relation.Attr
	for i := f.Node(a); i >= 0; i = f.Parent[i] {
		out = append(out, f.Attrs[i])
	}
	return out
}

// RootOf returns the root attribute above a.
func (f *AttrForest) RootOf(a relation.Attr) relation.Attr {
	anc := f.Ancestors(a)
	return anc[len(anc)-1]
}

// String renders the forest with indentation, one attribute per line.
func (f *AttrForest) String() string {
	var b strings.Builder
	var walk func(i, depth int)
	walk = func(i, depth int) {
		fmt.Fprintf(&b, "%sx%d\n", strings.Repeat("  ", depth), int(f.Attrs[i]))
		kids := append([]int(nil), f.Children[i]...)
		sort.Ints(kids)
		for _, c := range kids {
			walk(c, depth+1)
		}
	}
	roots := append([]int(nil), f.Roots...)
	sort.Ints(roots)
	for _, r := range roots {
		walk(r, 0)
	}
	return b.String()
}
