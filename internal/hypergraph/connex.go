package hypergraph

// Section 6: join-aggregate queries. A query Q with output attributes y is
// free-connex iff Q is acyclic and Q⁺ = (V, E ∪ {y}) is acyclic (the
// standard characterization of Bagan, Durand and Grandjean, equivalent to
// the paper's width-1 free-connex GHD definition). It is out-hierarchical
// iff additionally the residual query over the output attributes,
// Q_out = (y, {e ∩ y : e ∈ E}), is r-hierarchical (Lemma 4).

// WithOutput bundles a query with its output attribute set.
type WithOutput struct {
	Q *Hypergraph
	Y AttrSet
}

// IsFreeConnex reports whether (Q, y) is a free-connex join-aggregate query.
// y must be a subset of Q's attributes. y = ∅ (full aggregation, e.g.
// computing |Q(R)|) is free-connex for every acyclic Q.
func (w WithOutput) IsFreeConnex() bool {
	if !w.Y.SubsetOf(w.Q.Attrs()) {
		return false
	}
	if !w.Q.IsAcyclic() {
		return false
	}
	if len(w.Y) == 0 {
		return true
	}
	plus := New(append(append([]AttrSet{}, w.Q.Edges...), w.Y.Clone())...)
	return plus.IsAcyclic()
}

// OutputResidual returns Q_out = (y, {e ∩ y : e ∈ E}) with empty
// intersections dropped, plus for each residual edge the index of the
// original edge it came from.
func (w WithOutput) OutputResidual() (*Hypergraph, []int) {
	out := &Hypergraph{}
	var src []int
	for i, e := range w.Q.Edges {
		r := e.Intersect(w.Y)
		if len(r) == 0 {
			continue
		}
		out.Edges = append(out.Edges, r)
		src = append(src, i)
	}
	return out, src
}

// IsOutHierarchical reports whether the query is free-connex with an
// r-hierarchical output residual (Lemma 4), in which case the §3.2
// instance-optimal algorithm applies to the reduced query.
func (w WithOutput) IsOutHierarchical() bool {
	if !w.IsFreeConnex() {
		return false
	}
	if len(w.Y) == 0 {
		return true
	}
	res, _ := w.OutputResidual()
	return res.IsRHierarchical()
}

// FreeConnexTree builds a join tree for Q⁺ = E ∪ {y} rooted at the virtual
// y-node and returns it together with the index of the virtual node (which
// equals len(Q.Edges)). It returns ok = false when the query is not
// free-connex. LinearAggroYannakakis (Section 6) processes real nodes
// bottom-up along this tree; the children of the virtual root become the
// frontier relations of the reduced output query T'.
func (w WithOutput) FreeConnexTree() (t *JoinTree, virtual int, ok bool) {
	if !w.IsFreeConnex() || len(w.Y) == 0 {
		return nil, -1, false
	}
	plus := New(append(append([]AttrSet{}, w.Q.Edges...), w.Y.Clone())...)
	tree, acyclic := plus.GYO()
	if !acyclic {
		return nil, -1, false
	}
	virtual = len(w.Q.Edges)
	tree = rerooted(tree, virtual)
	return tree, virtual, true
}

// rerooted returns the same undirected tree re-rooted at r.
func rerooted(t *JoinTree, r int) *JoinTree {
	n := len(t.Parent)
	adj := make([][]int, n)
	for i, p := range t.Parent {
		if p >= 0 {
			adj[i] = append(adj[i], p)
			adj[p] = append(adj[p], i)
		}
	}
	nt := &JoinTree{
		Root:     r,
		Parent:   make([]int, n),
		Children: make([][]int, n),
	}
	for i := range nt.Parent {
		nt.Parent[i] = -1
	}
	seen := make([]bool, n)
	var order []int
	queue := []int{r}
	seen[r] = true
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		order = append(order, u)
		for _, v := range adj[u] {
			if !seen[v] {
				seen[v] = true
				nt.Parent[v] = u
				nt.Children[u] = append(nt.Children[u], v)
				queue = append(queue, v)
			}
		}
	}
	// RemovalOrder: reverse BFS = children before parents.
	nt.RemovalOrder = make([]int, 0, len(order))
	for i := len(order) - 1; i >= 0; i-- {
		nt.RemovalOrder = append(nt.RemovalOrder, order[i])
	}
	return nt
}
