package core_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/hypergraph"
	"repro/internal/mpc"
	"repro/internal/relation"
)

// NaiveCount counts the join without building it; Naive builds it. These
// tests pin the first to the row count of the second.

// naiveRows is the reference count: the rows Naive materializes.
func naiveRows(in *core.Instance) int64 { return int64(core.Naive(in).Size()) }

// naiveBound bounds the largest partial join Naive builds: joining a
// relation multiplies the rows by at most its largest group on the
// attributes the relations before it read. The test runs Naive only under
// this bound, so a count wrongly low cannot make it build an instance
// whose join does not fit in memory.
func naiveBound(in *core.Instance) int64 {
	var seen relation.Schema
	rows, most := int64(1), int64(1)
	for _, r := range in.Rels {
		pos := r.Schema.Positions(r.Schema.Intersect(seen))
		groups := map[string]int64{}
		deg := int64(0)
		for _, t := range r.Tuples {
			k := relation.KeyAt(t, pos)
			groups[k]++
			deg = max(deg, groups[k])
		}
		rows = min(rows*deg, math.MaxInt32)
		most = max(most, rows)
		seen = seen.Union(r.Schema)
	}
	return most
}

// bagInstance fills q with n rows per relation drawn uniformly from
// [0, dom), duplicates kept.
func bagInstance(rng *mpc.Rng, q *hypergraph.Hypergraph, n, dom int) *core.Instance {
	rels := make([]*relation.Relation, len(q.Edges))
	for i, e := range q.Edges {
		rels[i] = relation.New(fmt.Sprintf("R%d", i+1), e.Schema())
		for r := 0; r < n; r++ {
			t := make([]relation.Value, len(e))
			for c := range t {
				t[c] = relation.Value(rng.Intn(dom))
			}
			rels[i].Add(t...)
		}
	}
	return core.NewInstance(q, rels...)
}

// nullary is a relation over no attributes holding n empty tuples.
func nullary(name string, n int) *relation.Relation {
	r := relation.New(name, relation.Schema{})
	for i := 0; i < n; i++ {
		r.Add()
	}
	return r
}

// TestNaiveCountMatchesNaive: on bag instances of every catalog query at
// sizes 0, 1, 5 and 40 over domains 1, 2, 3 and 8, and on the instance of
// no relations, nullary relations holding 0, 1 and 3 empty tuples, a
// product, a relation whose schema is not in attribute order and the
// triangle, NaiveCount equals the number of rows Naive builds. A case
// whose count passes 2·10⁵ is skipped: Naive would build every row.
func TestNaiveCountMatchesNaive(t *testing.T) {
	type tc struct {
		name string
		in   *core.Instance
	}
	var cases []tc
	for i, e := range hypergraph.Catalog() {
		for _, n := range []int{0, 1, 5, 40} {
			for _, dom := range []int{1, 2, 3, 8} {
				in := bagInstance(mpc.NewChildRng(48, i*1000+n*10+dom), e.Q, n, dom)
				cases = append(cases, tc{fmt.Sprintf("%s/n=%d/dom=%d", e.Name, n, dom), in})
			}
		}
	}
	cases = append(cases, tc{"no relations", core.NewInstance(hypergraph.New())})
	line := func(n int) *relation.Relation {
		r := relation.New("R", relation.NewSchema(1, 2))
		for i := 0; i < n; i++ {
			r.Add(relation.Value(i%3), relation.Value(i))
		}
		return r
	}
	for _, k := range []int{0, 1, 3} {
		empty := hypergraph.NewAttrSet()
		cases = append(cases,
			tc{fmt.Sprintf("nullary %d alone", k), core.NewInstance(hypergraph.New(empty), nullary("E", k))},
			tc{fmt.Sprintf("nullary %d first", k), core.NewInstance(hypergraph.New(empty, hypergraph.NewAttrSet(1, 2)), nullary("E", k), line(7))},
			tc{fmt.Sprintf("nullary %d last", k), core.NewInstance(hypergraph.New(hypergraph.NewAttrSet(1, 2), empty), line(7), nullary("E", k))},
			tc{fmt.Sprintf("nullary %d twice", k), core.NewInstance(hypergraph.New(empty, hypergraph.NewAttrSet(1, 2), empty), nullary("E", k), line(5), nullary("F", 2))},
		)
	}
	cases = append(cases, tc{"product", bagInstance(mpc.NewRng(49), hypergraph.CartesianK(4), 9, 4)})
	r1, r2, r3 := relation.New("R1", relation.NewSchema(1, 2)), relation.New("R2", relation.Schema{3, 2}), relation.New("R3", relation.NewSchema(3, 4))
	for i := 0; i < 30; i++ {
		r1.Add(relation.Value(i%4), relation.Value(i%5))
		r2.Add(relation.Value(i%7), relation.Value(i%5))
		r3.Add(relation.Value(i%7), relation.Value(i))
	}
	cases = append(cases, tc{"unsorted schema", core.NewInstance(hypergraph.Line3(), r1, r2, r3)})
	cases = append(cases, tc{"triangle", bagInstance(mpc.NewRng(50), hypergraph.Triangle(), 200, 12)})

	skipped := 0
	for _, cs := range cases {
		got := core.NaiveCount(cs.in)
		if got > 200_000 || naiveBound(cs.in) > 2_000_000 {
			skipped++
			continue
		}
		if want := naiveRows(cs.in); got != want {
			t.Errorf("%s: NaiveCount %d, Naive built %d rows", cs.name, got, want)
		}
	}
	if skipped > len(cases)/10 {
		t.Errorf("%d of %d cases past 2·10⁵ rows were skipped", skipped, len(cases))
	}
}

// FuzzNaiveCountAgainstNaive draws random join trees with skewed, dangling
// and bag data (FuzzCountAgainstOracle's generator), relations reordered,
// and demands that NaiveCount equal the rows Naive builds.
func FuzzNaiveCountAgainstNaive(f *testing.F) {
	f.Add(uint64(1), uint8(3), uint8(12), uint8(4), uint8(0))
	f.Add(uint64(2), uint8(5), uint8(10), uint8(3), uint8(1))
	f.Add(uint64(3), uint8(4), uint8(8), uint8(9), uint8(2))
	f.Add(uint64(4), uint8(1), uint8(6), uint8(2), uint8(3))
	f.Add(uint64(5), uint8(5), uint8(12), uint8(1), uint8(5))
	// Five edges over one value: steps that drop an attribute merge
	// projections.
	f.Add(uint64(14), uint8(0x77), uint8(0x8e), uint8(0), uint8(0x79))
	f.Fuzz(func(t *testing.T, seed uint64, nEdges, nRows, dom, flags uint8) {
		rng := mpc.NewRng(seed)
		q := randomJoinTree(rng, 1+int(nEdges)%5)
		// At most 12 rows per relation and 5 relations keep Naive's
		// materialized join under 12^5 rows.
		in := randomCountData(rng, q, int(nRows)%13, 1+int(dom)%10, flags&1 != 0)
		if flags&2 != 0 {
			// Join in reverse: the live sets and merges differ from the
			// join tree's preorder.
			rels := make([]*relation.Relation, len(in.Rels))
			edges := make([]hypergraph.AttrSet, len(in.Rels))
			for i, r := range in.Rels {
				j := len(rels) - 1 - i
				rels[j], edges[j] = r, q.Edges[i]
			}
			in = core.NewInstance(hypergraph.New(edges...), rels...)
		}
		if got, want := core.NaiveCount(in), naiveRows(in); got != want {
			t.Fatalf("%v: NaiveCount %d, Naive built %d rows", in.Q, got, want)
		}
	})
}

// unaryProduct is the product of k relations over one attribute each,
// every relation holding the n values 0..n-1.
func unaryProduct(k, n int) *core.Instance {
	rels := make([]*relation.Relation, k)
	for i := range rels {
		rels[i] = relation.New(fmt.Sprintf("R%d", i+1), relation.NewSchema(relation.Attr(i+1)))
		for v := 0; v < n; v++ {
			rels[i].Add(relation.Value(v))
		}
	}
	return core.NewInstance(hypergraph.CartesianK(k), rels...)
}

// TestNaiveCountNeverMaterializes: a product of four relations of 2¹⁰
// rows has 2⁴⁰ rows, which no machine builds; NaiveCount counts it from
// one running total.
func TestNaiveCountNeverMaterializes(t *testing.T) {
	if got := core.NaiveCount(unaryProduct(4, 1<<10)); got != 1<<40 {
		t.Fatalf("NaiveCount = %d, want 2⁴⁰", got)
	}
}

// TestNaiveCountOverflowPanics: four relations of 2¹⁶ rows have 2⁶⁴
// rows, past int64; NaiveCount panics naming the overflow rather than
// returning a wrapped count.
func TestNaiveCountOverflowPanics(t *testing.T) {
	var msg any
	func() {
		defer func() { msg = recover() }()
		t.Errorf("NaiveCount returned %d", core.NaiveCount(unaryProduct(4, 1<<16)))
	}()
	if !strings.Contains(fmt.Sprint(msg), "overflows int64") {
		t.Fatalf("recovered %v, want a panic naming the int64 overflow", msg)
	}
}
