package core

import (
	"fmt"

	"repro/internal/hypergraph"
	"repro/internal/mpc"
	"repro/internal/relation"
)

// materialize collects distributed relations back into in-memory relations
// (free: an inspection step for the simulator's in-memory recursion, whose
// communication is charged explicitly by the recursion itself).
func materialize(dists []*mpc.Dist) []*relation.Relation {
	rels := make([]*relation.Relation, len(dists))
	for i, d := range dists {
		rels[i] = d.ToRelation(fmt.Sprintf("R%d", i))
	}
	return rels
}

// chargeLinear charges one linear-load statistics round: n tuples spread
// over the cluster (degree counting, sum-by-key passes and the like).
//
//lint:load perP
func chargeLinear(c *mpc.Cluster, n int) {
	loads := make([]int, c.P)
	per := n / c.P
	rem := n % c.P
	for s := range loads {
		loads[s] = per
		if s < rem {
			loads[s]++
		}
	}
	c.ChargeRound(loads)
}

// chargeInput charges a sub-problem's arrival at a fresh sub-cluster.
func chargeInput(c *mpc.Cluster, n int) { c.ChargeInput(n) }

// totalSize sums relation sizes.
func totalSize(rels []*relation.Relation) int {
	n := 0
	for _, r := range rels {
		n += r.Size()
	}
	return n
}

// unionSchema unions the relations' schemas in order.
func unionSchema(rels []*relation.Relation) relation.Schema {
	var s relation.Schema
	for _, r := range rels {
		s = s.Union(r.Schema)
	}
	return s
}

// splitScalars separates relations whose attributes are all fixed (they
// carry at most one tuple per subproblem: a pure annotation factor).
func splitScalars(rels []*relation.Relation, fixed hypergraph.AttrSet) (active, scalar []*relation.Relation) {
	for _, r := range rels {
		rem := hypergraph.NewAttrSet([]relation.Attr(r.Schema)...).Minus(fixed)
		if len(rem) == 0 {
			scalar = append(scalar, r)
		} else {
			active = append(active, r)
		}
	}
	return active, scalar
}

// foldScalars multiplies the scalar relations' annotations; alive=false if
// any is empty (the subproblem's join is then empty).
func foldScalars(scalar []*relation.Relation, ring relation.Semiring) (int64, bool) {
	scale := ring.One
	for _, r := range scalar {
		switch r.Size() {
		case 0:
			return ring.Zero, false
		case 1:
			scale = ring.Mul(scale, r.Annot(0))
		default:
			panic("core: scalar relation with multiple tuples in one subproblem")
		}
	}
	return scale, true
}

// joinScalarTuples merges the single tuples of scalar relations into one
// tuple over their union schema.
func joinScalarTuples(scalar []*relation.Relation) relation.Tuple {
	schema := unionSchema(scalar)
	t := make(relation.Tuple, len(schema))
	for _, r := range scalar {
		if r.Size() == 0 {
			continue
		}
		for i, a := range r.Schema {
			t[schema.Pos(a)] = r.Tuples[0][i]
		}
	}
	return t
}

// scaleAnnots multiplies every annotation of r by scale.
func scaleAnnots(r *relation.Relation, scale int64, ring relation.Semiring) *relation.Relation {
	if scale == ring.One {
		return r
	}
	out := r.Clone()
	if out.Annots == nil {
		out.Annots = make([]int64, out.Size())
		for i := range out.Annots {
			out.Annots[i] = ring.One
		}
	}
	for i := range out.Annots {
		out.Annots[i] = ring.Mul(out.Annots[i], scale)
	}
	return out
}

// reduceFold applies the paper's reduce procedure on remaining attributes:
// while remaining(e) ⊆ remaining(e'), fold R(e)'s annotations into R(e')
// (R(e') ← R(e) ⋈ R(e')) and drop R(e). Tuples of R(e') without a partner
// are dropped (they are dangling for this subproblem).
func reduceFold(rels []*relation.Relation, fixed hypergraph.AttrSet, ring relation.Semiring) []*relation.Relation {
	out := append([]*relation.Relation(nil), rels...)
	rem := func(r *relation.Relation) hypergraph.AttrSet {
		return hypergraph.NewAttrSet([]relation.Attr(r.Schema)...).Minus(fixed)
	}
	for {
		folded := false
		for i := 0; i < len(out) && !folded; i++ {
			for j := 0; j < len(out); j++ {
				if i == j {
					continue
				}
				ri, rj := rem(out[i]), rem(out[j])
				if !ri.SubsetOf(rj) {
					continue
				}
				if ri.Equal(rj) && i < j {
					continue // equal sets: fold the higher index
				}
				out[j] = foldInto(out[j], out[i], []relation.Attr(ri.Schema()), ring)
				out = append(out[:i], out[i+1:]...)
				folded = true
				break
			}
		}
		if !folded {
			return out
		}
	}
}

// flatRows copies r's rows into one flat part (one allocation per column),
// so that mpc.IndexRows can address them by value and callers can keep what
// they know about a tuple by row number instead of by its encoding.
//
//lint:alloc-ceiling
func flatRows(r *relation.Relation) *mpc.Columns {
	cols := new(mpc.Columns)
	cols.Reserve(len(r.Schema), len(r.Tuples))
	for i, t := range r.Tuples {
		copy(cols.AppendRow(r.Annot(i)), t)
	}
	return cols
}

// foldInto computes host ⋈ small where small's remaining attributes are
// keyAttrs ⊆ host's schema: host tuples keep their schema, annotations
// multiply, misses drop.
//
//lint:alloc-ceiling
func foldInto(host, small *relation.Relation, keyAttrs []relation.Attr, ring relation.Semiring) *relation.Relation {
	hPos := host.Schema.Positions(keyAttrs)
	idx := mpc.IndexRows(flatRows(small), small.Schema.Positions(keyAttrs))
	defer idx.Release()
	if idx.Groups() != small.Size() {
		panic("core: foldInto with duplicate keys in folded relation")
	}
	out := relation.New(host.Name, host.Schema)
	out.Tuples = make([]relation.Tuple, 0, host.Size())
	out.Annots = make([]int64, 0, host.Size())
	for i, t := range host.Tuples {
		j := idx.First(t, hPos)
		if j < 0 {
			continue
		}
		out.Tuples = append(out.Tuples, t)
		out.Annots = append(out.Annots, ring.Mul(host.Annot(i), small.Annot(j)))
	}
	return out
}

// toDistInPlace spreads a relation's tuples round-robin over the cluster
// without charging: they are already resident (charged by chargeInput).
func toDistInPlace(c *mpc.Cluster, r *relation.Relation, ring relation.Semiring) *mpc.Dist {
	d := mpc.NewDist(c, r.Schema)
	for i, t := range r.Tuples {
		d.Parts[i%c.P].Append(t, r.Annot(i))
	}
	return d
}

// groupByValue restricts every relation to σ_{x=v} for each value v of x
// present anywhere. Relations may come back empty for a given v.
func groupByValue(rels []*relation.Relation, x relation.Attr) map[relation.Value][]*relation.Relation {
	groups := map[relation.Value][]*relation.Relation{}
	ensure := func(v relation.Value) []*relation.Relation {
		if g, ok := groups[v]; ok {
			return g
		}
		g := make([]*relation.Relation, len(rels))
		for i, r := range rels {
			nr := relation.New(r.Name, r.Schema)
			nr.Annots = []int64{}
			g[i] = nr
		}
		groups[v] = g
		return g
	}
	for i, r := range rels {
		pos := r.Schema.Pos(x)
		for j, t := range r.Tuples {
			g := ensure(t[pos])
			g[i].Tuples = append(g[i].Tuples, t)
			g[i].Annots = append(g[i].Annots, r.Annot(j))
		}
	}
	return groups
}

// localJoin joins small in-memory relations on one server, left to right,
// appending the result rows to out in schema's layout (schema is the union
// of the relations' schemas, in any order): relation 0 probes, every later
// relation is a stage of the shared kernel keyed on the attributes the
// earlier ones bound.
func localJoin(out *mpc.Columns, schema relation.Schema, rels []*relation.Relation, ring relation.Semiring) {
	stages := make([]joinStage, len(rels))
	var bound relation.Schema
	for k, r := range rels {
		key, extra := r.Schema.Intersect(bound), r.Schema.Minus(bound)
		stages[k] = joinStage{part: flatRows(r),
			keyPos: r.Schema.Positions(key), keyOut: schema.Positions(key),
			src: r.Schema.Positions(extra), dst: schema.Positions(extra)}
		bound = bound.Union(r.Schema)
	}
	indexJoin(out, len(schema), stages, nil, ring)
}

// componentsByRoot partitions the active relations by the attribute-forest
// tree containing their remaining attributes.
func componentsByRoot(active []*relation.Relation, fixed hypergraph.AttrSet, forest *hypergraph.AttrForest) [][]*relation.Relation {
	byRoot := map[relation.Attr][]*relation.Relation{}
	var order []relation.Attr
	for _, r := range active {
		rem := hypergraph.NewAttrSet([]relation.Attr(r.Schema)...).Minus(fixed)
		root := forest.RootOf(rem[0])
		if _, ok := byRoot[root]; !ok {
			order = append(order, root)
		}
		byRoot[root] = append(byRoot[root], r)
	}
	out := make([][]*relation.Relation, 0, len(order))
	for _, root := range order {
		out = append(out, byRoot[root])
	}
	return out
}

// padTo re-lays a tuple from one schema into another (target must contain
// every source attribute).
func padTo(t relation.Tuple, from, to relation.Schema) relation.Tuple {
	if from.Equal(to) {
		return t
	}
	out := make(relation.Tuple, len(to))
	for i, a := range from {
		out[to.Pos(a)] = t[i]
	}
	return out
}
