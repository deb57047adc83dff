package core

import (
	"repro/internal/hypergraph"
	"repro/internal/mpc"
	"repro/internal/primitives"
	"repro/internal/relation"
)

// InMemoryJoinCount computes |⋈ rels| for an acyclic set of relations by
// dynamic programming over a join tree (counts only — never materializes
// the join). Used by the instance-optimal allocator, which needs the exact
// subset join sizes |Q(R, S)| of equation (2), and by tests.
func InMemoryJoinCount(rels []*relation.Relation) int64 {
	if len(rels) == 0 {
		return 1
	}
	var schemas []relation.Schema
	for _, r := range rels {
		schemas = append(schemas, r.Schema)
	}
	q := hypergraph.FromSchemas(schemas...)
	tree, ok := q.GYO()
	if !ok {
		panic("core: InMemoryJoinCount on cyclic subset")
	}
	// counts[u][i] is the number of join extensions of relation u's row i in
	// u's subtree. Counts go by row number, not by the tuple's value: equal
	// rows of a bag are separate rows, each with its own count.
	counts := make([][]int64, len(rels))
	for u := range rels {
		counts[u] = make([]int64, rels[u].Size())
		for i := range counts[u] {
			counts[u][i] = 1
		}
	}
	for _, u := range tree.RemovalOrder {
		p := tree.Parent[u]
		if p < 0 {
			break
		}
		shared := rels[u].Schema.Intersect(rels[p].Schema)
		pPos := rels[p].Schema.Positions(shared)
		// Sum u's counts per shared key into the row that opens the key's
		// group; a row of p multiplies in the sum of its key, 0 on a miss.
		idx := mpc.IndexRows(flatRows(rels[u]), rels[u].Schema.Positions(shared))
		for i, n := range counts[u] {
			if !idx.Opens(i) {
				continue
			}
			for r := idx.Next(i); r >= 0; r = idx.Next(r) {
				n += counts[u][r]
			}
			counts[u][i] = n
		}
		for i, t := range rels[p].Tuples {
			if j := idx.First(t, pPos); j >= 0 {
				counts[p][i] *= counts[u][j]
			} else {
				counts[p][i] = 0
			}
		}
		idx.Release()
	}
	var total int64
	for _, n := range counts[tree.Root] {
		total += n
	}
	return total
}

// LInstance computes the paper's per-instance lower bound (equation 2),
//
//	L_instance(p, R) = max_{S ⊆ E} (|Q(R, S)| / p)^{1/|S|},
//
// on a dangling-free instance, where |Q(R, S)| = |⋈_{e∈S} R(e)|. The input
// must already be fully reduced (no dangling tuples); pass instances
// through NaiveSemiJoinReduce or FullReduce first.
func LInstance(in *Instance, p int) int64 {
	// L_instance depends only on the REDUCED instance (Section 3.2): fold
	// relations whose schema is contained in another's before enumerating
	// subsets, or disjoint contained edges would contribute spurious
	// Cartesian-product terms that are not real Q(R, S) sets.
	rels := reduceFold(in.Rels, nil, relation.CountRing)
	m := len(rels)
	best := int64(0)
	for mask := 1; mask < 1<<m; mask++ {
		var sub []*relation.Relation
		for i := 0; i < m; i++ {
			if mask&(1<<i) != 0 {
				sub = append(sub, rels[i])
			}
		}
		size := InMemoryJoinCount(sub)
		v := primitives.Iroot((size+int64(p)-1)/int64(p), len(sub))
		if v > best {
			best = v
		}
	}
	return best
}
