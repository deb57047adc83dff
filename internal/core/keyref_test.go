package core

// The string-keyed bodies of foldInto and InMemoryJoinCount as they were
// before keys became windows into flat parts, kept verbatim as test-only
// references, and the parity tests that hold the row-numbered versions to
// them on duplicate-free inputs. On bags the reference InMemoryJoinCount is
// WRONG — equal rows share one map entry, so a duplicated row's factor is
// multiplied in once per copy — which TestInMemoryJoinCountOnBags pins.

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/hypergraph"
	"repro/internal/relation"
)

// foldIntoRef indexes the small side in a map keyed by relation.KeyAt.
func foldIntoRef(host, small *relation.Relation, keyAttrs []relation.Attr, ring relation.Semiring) *relation.Relation {
	sPos := small.Schema.Positions(keyAttrs)
	hPos := host.Schema.Positions(keyAttrs)
	idx := make(map[string]int64, small.Size())
	for i, t := range small.Tuples {
		k := relation.KeyAt(t, sPos)
		if _, dup := idx[k]; dup {
			panic("core: foldInto with duplicate keys in folded relation")
		}
		idx[k] = small.Annot(i)
	}
	out := relation.New(host.Name, host.Schema)
	out.Annots = []int64{}
	for i, t := range host.Tuples {
		a, ok := idx[relation.KeyAt(t, hPos)]
		if !ok {
			continue
		}
		out.Tuples = append(out.Tuples, t)
		out.Annots = append(out.Annots, ring.Mul(host.Annot(i), a))
	}
	return out
}

// inMemoryJoinCountRef keeps its counts in maps keyed by the tuple's own
// encoding (relation.EncodeTuple).
func inMemoryJoinCountRef(rels []*relation.Relation) int64 {
	if len(rels) == 0 {
		return 1
	}
	var schemas []relation.Schema
	for _, r := range rels {
		schemas = append(schemas, r.Schema)
	}
	tree, ok := hypergraph.FromSchemas(schemas...).GYO()
	if !ok {
		panic("core: InMemoryJoinCount on cyclic subset")
	}
	counts := make([]map[string]int64, len(rels))
	for u := range rels {
		counts[u] = make(map[string]int64, rels[u].Size())
		for _, t := range rels[u].Tuples {
			counts[u][relation.EncodeTuple(t)] = 1
		}
	}
	for _, u := range tree.RemovalOrder {
		p := tree.Parent[u]
		if p < 0 {
			break
		}
		shared := rels[u].Schema.Intersect(rels[p].Schema)
		uPos := rels[u].Schema.Positions(shared)
		pPos := rels[p].Schema.Positions(shared)
		agg := make(map[string]int64)
		for _, t := range rels[u].Tuples {
			agg[relation.KeyAt(t, uPos)] += counts[u][relation.EncodeTuple(t)]
		}
		for _, t := range rels[p].Tuples {
			k := relation.EncodeTuple(t)
			counts[p][k] *= agg[relation.KeyAt(t, pPos)]
		}
	}
	var total int64
	for _, t := range rels[tree.Root].Tuples {
		total += counts[tree.Root][relation.EncodeTuple(t)]
	}
	return total
}

// caught runs f and returns what it panicked with, nil if it returned.
func caught(f func()) (r any) {
	defer func() { r = recover() }()
	f()
	return nil
}

// TestFoldIntoParity: on random hosts and folded relations — the host a
// bag with per-row annotations, the folded side's keys distinct or, one
// draw in four, with one key repeated; key domains that make some host rows
// miss — foldInto returns the reference's rows in the reference's order, or
// refuses with the reference's panic.
func TestFoldIntoParity(t *testing.T) {
	keyAttrs := []relation.Attr{2, 1}
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dom := 2 + rng.Intn(6)
		host := relation.New("host", relation.NewSchema(1, 5, 2))
		for i, n := 0, rng.Intn(60); i < n; i++ {
			host.AddAnnotated(int64(1+rng.Intn(3)), relation.Value(rng.Intn(dom)), relation.Value(i), relation.Value(rng.Intn(dom)))
		}
		small := relation.New("small", relation.NewSchema(2, 1))
		for i, n := 0, rng.Intn(dom*dom); i < n; i++ {
			small.AddAnnotated(int64(rng.Intn(4)), relation.Value(rng.Intn(dom)), relation.Value(rng.Intn(dom)))
		}
		small = small.Dedup()
		if small.Size() > 0 && rng.Intn(4) == 0 {
			small.AddAnnotated(9, small.Tuples[rng.Intn(small.Size())]...)
		}
		var got, want *relation.Relation
		gotPanic := caught(func() { got = foldInto(host, small, keyAttrs, relation.CountRing) })
		wantPanic := caught(func() { want = foldIntoRef(host, small, keyAttrs, relation.CountRing) })
		if gotPanic != nil || wantPanic != nil {
			return fmt.Sprint(gotPanic) == fmt.Sprint(wantPanic)
		}
		if !got.Schema.Equal(want.Schema) || got.Size() != want.Size() {
			return false
		}
		for i := range want.Tuples {
			if !reflect.DeepEqual(got.Tuples[i], want.Tuples[i]) || got.Annot(i) != want.Annot(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestInMemoryJoinCountParity: on duplicate-free random instances of every
// acyclic test query, the row-numbered count, the string-keyed reference
// and the oracle agree — on the whole instance and on every prefix subset.
func TestInMemoryJoinCountParity(t *testing.T) {
	queries := append(rhierQueries, hypergraph.Line3(), hypergraph.Fig5Example())
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := randInstance(rng, queries[rng.Intn(len(queries))], 4+rng.Intn(16), 2+rng.Intn(4))
		if got, ref, want := InMemoryJoinCount(in.Rels), inMemoryJoinCountRef(in.Rels), NaiveCount(in); got != ref || got != want {
			t.Logf("%v: InMemoryJoinCount = %d, reference %d, oracle %d", in.Q, got, ref, want)
			return false
		}
		for k := 1; k < len(in.Rels); k++ {
			sub := in.Rels[:k]
			var schemas []relation.Schema
			for _, r := range sub {
				schemas = append(schemas, r.Schema)
			}
			if !hypergraph.FromSchemas(schemas...).IsAcyclic() {
				continue
			}
			if got, ref := InMemoryJoinCount(sub), inMemoryJoinCountRef(sub); got != ref {
				t.Logf("%v[:%d]: InMemoryJoinCount = %d, reference %d", in.Q, k, got, ref)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestInMemoryJoinCountOnBags is the regression test for the shared-entry
// bug: with R1(A,B) = {(1,7),(1,7)} and R2(B,C) = {(7,1),(7,2),(7,3)} the
// bag join has 6 rows, and the string-keyed count returned 6 for {R1,R2}
// but 18 for {R2,R1} (R1 the parent: its two equal rows shared one entry,
// multiplied by 3 twice). Row-numbered counts give 6 in both orders, and
// agree with the oracle on random bags.
func TestInMemoryJoinCountOnBags(t *testing.T) {
	r1 := relation.New("R1", relation.NewSchema(1, 2))
	r1.Add(1, 7)
	r1.Add(1, 7)
	r2 := relation.New("R2", relation.NewSchema(2, 3))
	r2.Add(7, 1)
	r2.Add(7, 2)
	r2.Add(7, 3)
	want := NaiveCount(NewInstance(hypergraph.Line2(), r1, r2))
	if want != 6 {
		t.Fatalf("oracle counts %d rows, want 6", want)
	}
	for _, rels := range [][]*relation.Relation{{r1, r2}, {r2, r1}} {
		if got := InMemoryJoinCount(rels); got != want {
			t.Errorf("InMemoryJoinCount(%s, %s) = %d, want %d", rels[0].Name, rels[1].Name, got, want)
		}
	}
	if a, b := inMemoryJoinCountRef([]*relation.Relation{r1, r2}), inMemoryJoinCountRef([]*relation.Relation{r2, r1}); a == b {
		t.Errorf("the string-keyed reference no longer shows the bug (%d in both orders): this test pins nothing", a)
	}

	rng := rand.New(rand.NewSource(53))
	for _, q := range append(rhierQueries, hypergraph.Line3(), hypergraph.Fig5Example()) {
		for trial := 0; trial < 5; trial++ {
			in := randBagInstance(rng, q, 12, 3)
			if got, want := InMemoryJoinCount(in.Rels), NaiveCount(in); got != want {
				t.Errorf("%v: InMemoryJoinCount = %d on a bag, oracle %d", q, got, want)
			}
		}
	}
}
