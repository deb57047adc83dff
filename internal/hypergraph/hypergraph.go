package hypergraph

import (
	"strings"

	"repro/internal/relation"
)

// Hypergraph is a join query Q = (V, E): vertices are attributes, hyperedges
// are relation schemas. Edge order is significant only as an index into the
// caller's relation list.
type Hypergraph struct {
	Edges []AttrSet
}

// New returns a hypergraph with the given edges.
func New(edges ...AttrSet) *Hypergraph {
	h := &Hypergraph{Edges: make([]AttrSet, len(edges))}
	for i, e := range edges {
		h.Edges[i] = e.Clone()
	}
	return h
}

// FromSchemas builds a hypergraph whose i-th edge is the attribute set of
// the i-th schema.
func FromSchemas(schemas ...relation.Schema) *Hypergraph {
	h := &Hypergraph{Edges: make([]AttrSet, len(schemas))}
	for i, s := range schemas {
		h.Edges[i] = NewAttrSet([]relation.Attr(s)...)
	}
	return h
}

// Attrs returns V, the union of all edges.
func (h *Hypergraph) Attrs() AttrSet {
	var v AttrSet
	for _, e := range h.Edges {
		v = v.Union(e)
	}
	return v
}

// EdgesWith returns the indices of edges containing attribute a
// (the set E_a in the paper's notation).
func (h *Hypergraph) EdgesWith(a relation.Attr) []int {
	var out []int
	for i, e := range h.Edges {
		if e.Has(a) {
			out = append(out, i)
		}
	}
	return out
}

// String renders the hypergraph as "{(x1,x2),(x2,x3)}".
func (h *Hypergraph) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, e := range h.Edges {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(e.Schema().String())
	}
	b.WriteByte('}')
	return b.String()
}

// Reduce applies the paper's reduce procedure: repeatedly remove an edge e
// if some other edge e' ⊇ e remains. It returns the reduced hypergraph and,
// for every original edge, the index (in the reduced graph) of a surviving
// edge that contains it. Ties between equal edges keep the lower index.
func (h *Hypergraph) Reduce() (*Hypergraph, []int) {
	n := len(h.Edges)
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}
	// absorbedBy[i] = j means edge i was removed because e_i ⊆ e_j.
	absorbedBy := make([]int, n)
	for i := range absorbedBy {
		absorbedBy[i] = -1
	}
	for {
		removed := false
		for i := 0; i < n && !removed; i++ {
			if !alive[i] {
				continue
			}
			for j := 0; j < n; j++ {
				if i == j || !alive[j] {
					continue
				}
				if h.Edges[i].SubsetOf(h.Edges[j]) {
					// Equal edges: keep the lower index.
					if h.Edges[i].Equal(h.Edges[j]) && i < j {
						continue
					}
					alive[i] = false
					absorbedBy[i] = j
					removed = true
					break
				}
			}
		}
		if !removed {
			break
		}
	}
	reduced := &Hypergraph{}
	newIdx := make([]int, n)
	for i := range newIdx {
		newIdx[i] = -1
	}
	for i := 0; i < n; i++ {
		if alive[i] {
			newIdx[i] = len(reduced.Edges)
			reduced.Edges = append(reduced.Edges, h.Edges[i].Clone())
		}
	}
	host := make([]int, n)
	for i := 0; i < n; i++ {
		j := i
		for absorbedBy[j] >= 0 {
			j = absorbedBy[j]
		}
		host[i] = newIdx[j]
	}
	return reduced, host
}

// JoinTree is a rooted join tree over the edges of a hypergraph: node i
// corresponds to edge i. Parent[Root] = -1. RemovalOrder lists edges in the
// order the GYO reduction removed them (leaves first); it is a valid
// bottom-up processing order.
type JoinTree struct {
	Root         int
	Parent       []int
	Children     [][]int
	RemovalOrder []int
}

// Depth returns the number of edges on the path from node u to the root.
func (t *JoinTree) Depth(u int) int {
	d := 0
	for t.Parent[u] >= 0 {
		u = t.Parent[u]
		d++
	}
	return d
}

// GYO runs the Graham/Yu–Ozsoyoglu reduction. It returns (tree, true) when
// the hypergraph is α-acyclic, and (nil, false) otherwise. The tree's root
// is the last surviving edge.
//
// An edge e is an "ear" if some other remaining edge e' contains every
// attribute of e that is shared with any other remaining edge; e is removed
// and attached to e' as its parent.
func (h *Hypergraph) GYO() (*JoinTree, bool) {
	n := len(h.Edges)
	if n == 0 {
		return &JoinTree{Root: -1}, true
	}
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}
	parent := make([]int, n)
	for i := range parent {
		parent[i] = -1
	}
	var order []int
	remaining := n
	for remaining > 1 {
		removed := false
		for i := 0; i < n && !removed; i++ {
			if !alive[i] {
				continue
			}
			// shared = attrs of e_i appearing in some other alive edge.
			var shared AttrSet
			for j := 0; j < n; j++ {
				if j == i || !alive[j] {
					continue
				}
				shared = shared.Union(h.Edges[i].Intersect(h.Edges[j]))
			}
			for j := 0; j < n; j++ {
				if j == i || !alive[j] {
					continue
				}
				if shared.SubsetOf(h.Edges[j]) {
					alive[i] = false
					parent[i] = j
					order = append(order, i)
					remaining--
					removed = true
					break
				}
			}
		}
		if !removed {
			return nil, false
		}
	}
	root := -1
	for i := 0; i < n; i++ {
		if alive[i] {
			root = i
		}
	}
	order = append(order, root)
	children := make([][]int, n)
	for i, p := range parent {
		if p >= 0 {
			children[p] = append(children[p], i)
		}
	}
	return &JoinTree{Root: root, Parent: parent, Children: children, RemovalOrder: order}, true
}

// IsAcyclic reports whether the hypergraph is α-acyclic.
func (h *Hypergraph) IsAcyclic() bool {
	_, ok := h.GYO()
	return ok
}
