package mpc

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/relation"
)

func mkRel(n int) *relation.Relation {
	r := relation.New("R", relation.NewSchema(1, 2))
	for i := 0; i < n; i++ {
		r.Add(relation.Value(i), relation.Value(i%7))
	}
	return r
}

func TestFromRelationInputLoad(t *testing.T) {
	c := NewCluster(4)
	d := FromRelation(c, mkRel(100))
	if d.Size() != 100 {
		t.Fatalf("Size = %d", d.Size())
	}
	if got := c.MaxLoad(); got != 25 {
		t.Errorf("initial MaxLoad = %d, want 25", got)
	}
	if c.Rounds() != 0 {
		t.Errorf("Rounds = %d, want 0 (input is round 0)", c.Rounds())
	}
}

func TestShuffleByKeyRoundAndLoad(t *testing.T) {
	c := NewCluster(4)
	d := FromRelation(c, mkRel(100))
	s := d.ShuffleByKey(d.Positions([]relation.Attr{1}), 1)
	if s.Size() != 100 {
		t.Fatalf("shuffle lost tuples: %d", s.Size())
	}
	if c.Rounds() != 1 {
		t.Errorf("Rounds = %d, want 1", c.Rounds())
	}
	if c.TotalComm() != 100 {
		t.Errorf("TotalComm = %d, want 100", c.TotalComm())
	}
	// Same key must land on the same server.
	pos := s.Positions([]relation.Attr{1})
	loc := map[string]int{}
	for srv := range s.Parts {
		part := &s.Parts[srv]
		for i := 0; i < part.Len(); i++ {
			k := relation.KeyAt(part.Tuple(i), pos)
			if prev, ok := loc[k]; ok && prev != srv {
				t.Fatalf("key split across servers %d and %d", prev, srv)
			}
			loc[k] = srv
		}
	}
}

func TestShuffleSkewConcentrates(t *testing.T) {
	// All tuples share one key: hashing must place the full relation on a
	// single server (this is exactly the skew the paper's algorithms avoid).
	c := NewCluster(8)
	r := relation.New("R", relation.NewSchema(1))
	for i := 0; i < 64; i++ {
		r.Add(42)
	}
	d := FromRelation(c, r)
	s := d.ShuffleByKey(d.Positions([]relation.Attr{1}), 3)
	max := 0
	for srv := range s.Parts {
		if n := s.Parts[srv].Len(); n > max {
			max = n
		}
	}
	if max != 64 {
		t.Errorf("skewed shuffle max part = %d, want 64", max)
	}
	if c.MaxLoad() != 64 {
		t.Errorf("MaxLoad = %d, want 64", c.MaxLoad())
	}
}

func TestBroadcastLoad(t *testing.T) {
	c := NewCluster(5)
	d := FromRelation(c, mkRel(10))
	b := d.Broadcast()
	if b.Size() != 50 {
		t.Errorf("broadcast size = %d, want 50", b.Size())
	}
	if got := c.RoundMax(1); got != 10 {
		t.Errorf("broadcast round load = %d, want 10", got)
	}
}

func TestGatherTo(t *testing.T) {
	c := NewCluster(4)
	d := FromRelation(c, mkRel(40))
	g := d.GatherTo(2)
	if g.Parts[2].Len() != 40 {
		t.Errorf("gather target has %d", g.Parts[2].Len())
	}
	for s := range g.Parts {
		if s != 2 && g.Parts[s].Len() != 0 {
			t.Errorf("server %d not empty", s)
		}
	}
}

func TestReplicateBy(t *testing.T) {
	c := NewCluster(4)
	d := FromRelation(c, mkRel(10))
	r := d.ReplicateBy(func(it Item) []int { return []int{0, 3} })
	if r.Parts[0].Len() != 10 || r.Parts[3].Len() != 10 {
		t.Errorf("replicate parts = %d,%d", r.Parts[0].Len(), r.Parts[3].Len())
	}
}

func TestRouteInvalidServerPanics(t *testing.T) {
	c := NewCluster(2)
	d := FromRelation(c, mkRel(1))
	defer func() {
		if recover() == nil {
			t.Fatal("routing to invalid server did not panic")
		}
	}()
	d.ReplicateAppend(func(it Item, dst []int) []int { return append(dst, 7) })
}

func TestMapFilterLocalFree(t *testing.T) {
	c := NewCluster(4)
	d := FromRelation(c, mkRel(20))
	before := c.Rounds()
	m := d.MapLocal(d.Schema, func(s int, it Item) []Item {
		if it.T[0]%2 == 0 {
			return []Item{it}
		}
		return nil
	})
	f := d.FilterLocal(func(it Item) bool { return it.T[0]%2 == 0 })
	if m.Size() != f.Size() || m.Size() != 10 {
		t.Errorf("sizes: map=%d filter=%d want 10", m.Size(), f.Size())
	}
	if c.Rounds() != before {
		t.Errorf("local ops charged rounds: %d -> %d", before, c.Rounds())
	}
}

// TestConcatSchemaMismatchPanics: a non-empty source that lacks an attribute
// of the target schema cannot be gathered onto it.
func TestConcatSchemaMismatchPanics(t *testing.T) {
	c := NewCluster(2)
	a := FromRelation(c, mkRel(4)).Project(relation.NewSchema(1))
	b := FromRelation(c, mkRel(4)).Project(relation.NewSchema(2))
	defer func() {
		if recover() == nil {
			t.Fatal("Concat with schema mismatch did not panic")
		}
	}()
	Concat(a.Schema, a, b)
}

// TestConcatAcrossClustersPanics: Concat's part s is every source's part s,
// so a source on another cluster is refused — whether it has servers the
// first lacks (their rows would be dropped), fewer (part s would not
// exist), or as many under another ledger.
func TestConcatAcrossClustersPanics(t *testing.T) {
	two, four := FromRelation(NewCluster(2), mkRel(10)), FromRelation(NewCluster(4), mkRel(10))
	for _, tc := range []struct {
		name string
		ds   []*Dist
	}{
		{"larger", []*Dist{two, four}},
		{"smaller", []*Dist{four, two}},
		{"same size", []*Dist{two, FromRelation(NewCluster(2), mkRel(3))}},
	} {
		func() {
			defer func() {
				if r := recover(); r != "mpc: Concat across clusters" {
					t.Errorf("%s cluster: Concat recovered %v, want the across-clusters panic", tc.name, r)
				}
			}()
			Concat(two.Schema, tc.ds...)
		}()
	}
}

func TestMoveToChargesSubInput(t *testing.T) {
	c := NewCluster(8)
	d := FromRelation(c, mkRel(64))
	sub := NewCluster(2)
	m := d.MoveTo(sub)
	if m.Size() != 64 {
		t.Fatalf("MoveTo lost tuples")
	}
	if sub.MaxLoad() != 32 {
		t.Errorf("sub input load = %d, want 32", sub.MaxLoad())
	}
}

func TestMergeSequential(t *testing.T) {
	c := NewCluster(4)
	sub := NewCluster(2)
	sub.input(0, 10)
	r := sub.newRound()
	sub.receive(r, 1, 7)
	c.MergeSequential(sub.Snapshot())
	if c.MaxLoad() != 10 {
		t.Errorf("MaxLoad = %d, want 10", c.MaxLoad())
	}
	if c.Rounds() != 2 {
		t.Errorf("Rounds = %d, want 2 (input + 1)", c.Rounds())
	}
}

func TestMergeParallel(t *testing.T) {
	c := NewCluster(4)
	mk := func(load int) Stats {
		s := NewCluster(2)
		r := s.newRound()
		s.receive(r, 0, load)
		return s.Snapshot()
	}
	c.MergeParallel([]Stats{mk(5), mk(9), mk(3)})
	if c.MaxLoad() != 9 {
		t.Errorf("parallel merge MaxLoad = %d, want 9", c.MaxLoad())
	}
}

func TestMergeGridSums(t *testing.T) {
	c := NewCluster(4)
	mk := func(load int) Stats {
		s := NewCluster(2)
		r := s.newRound()
		s.receive(r, 0, load)
		return s.Snapshot()
	}
	c.MergeGrid([]Stats{mk(5), mk(9)})
	if c.MaxLoad() != 14 {
		t.Errorf("grid merge MaxLoad = %d, want 14", c.MaxLoad())
	}
}

func TestChargeRound(t *testing.T) {
	c := NewCluster(3)
	c.ChargeRound([]int{1, 5, 2})
	if c.MaxLoad() != 5 {
		t.Errorf("MaxLoad = %d, want 5", c.MaxLoad())
	}
	c.Charge(0, 9)
	if c.MaxLoad() != 9 || c.Rounds() != 2 {
		t.Errorf("after Charge: load=%d rounds=%d", c.MaxLoad(), c.Rounds())
	}
}

func TestRngDeterminism(t *testing.T) {
	a, b := NewRng(42), NewRng(42)
	for i := 0; i < 100; i++ {
		if a.Next() != b.Next() {
			t.Fatal("Rng not deterministic")
		}
	}
	if NewRng(1).Next() == NewRng(2).Next() {
		t.Error("different seeds produced same first value")
	}
}

func TestRngIntnRange(t *testing.T) {
	r := NewRng(7)
	f := func(n uint8) bool {
		m := int(n%50) + 1
		v := r.Intn(m)
		return v >= 0 && v < m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRngPerm(t *testing.T) {
	r := NewRng(9)
	p := r.Perm(20)
	seen := make([]bool, 20)
	for _, v := range p {
		if v < 0 || v >= 20 || seen[v] {
			t.Fatalf("bad permutation %v", p)
		}
		seen[v] = true
	}
}

// TestHashTupleAtMatchesHash64 pins the bit-identity ShuffleByKey's
// routing depends on: hashing tuple values directly must equal hashing
// the encoded key string, for random tuples, projections and salts.
func TestHashTupleAtMatchesHash64(t *testing.T) {
	rng := NewRng(77)
	for trial := 0; trial < 500; trial++ {
		width := 1 + rng.Intn(5)
		tu := make(relation.Tuple, width)
		for i := range tu {
			// Mix small, negative, and full-range values.
			tu[i] = relation.Value(rng.Next()) >> uint(rng.Intn(64))
			if rng.Intn(2) == 0 {
				tu[i] = -tu[i]
			}
		}
		k := 1 + rng.Intn(width)
		pos := make([]int, k)
		for i := range pos {
			pos[i] = rng.Intn(width)
		}
		salt := rng.Next()
		if got, want := HashTupleAt(tu, pos, salt), Hash64(relation.KeyAt(tu, pos), salt); got != want {
			t.Fatalf("trial %d: HashTupleAt=%#x, Hash64(KeyAt)=%#x (tuple %v, pos %v, salt %#x)",
				trial, got, want, tu, pos, salt)
		}
	}
}

// TestHashTupleAtWithMatchesWidenedRow pins the identity the binary join's
// heavy-key router depends on: HashTupleAtWith(t, pos, salt, u, v) equals
// HashTupleAt of the row t ++ [u, v] over pos ++ [w, w+1], for tuple widths
// 0–4, random and repeated positions, several salts, and the values whose
// order encoding is extreme (0, −1, MinInt64, MaxInt64) in the row and in
// the tail.
func TestHashTupleAtWithMatchesWidenedRow(t *testing.T) {
	specials := []relation.Value{0, -1, math.MinInt64, math.MaxInt64}
	rng := NewRng(29)
	value := func() relation.Value {
		if rng.Intn(2) == 0 {
			return specials[rng.Intn(len(specials))]
		}
		return relation.Value(rng.Next()) >> uint(rng.Intn(64))
	}
	salts := []uint64{0, 1, 0x10, math.MaxUint64, rng.Next()}
	for width := 0; width <= 4; width++ {
		for trial := 0; trial < 200; trial++ {
			tu := make(relation.Tuple, width)
			for i := range tu {
				tu[i] = value()
			}
			var pos []int
			switch {
			case width == 0:
			case trial%3 == 0: // every position once, the router's whole row
				for i := 0; i < width; i++ {
					pos = append(pos, i)
				}
			case trial%3 == 1: // one position repeated
				pos = []int{rng.Intn(width), rng.Intn(width)}
				pos = append(pos, pos[0], pos[1], pos[0])
			default:
				pos = make([]int, rng.Intn(2*width+1))
				for i := range pos {
					pos[i] = rng.Intn(width)
				}
			}
			u, v := value(), value()
			if trial < len(specials)*len(specials) {
				u, v = specials[trial/len(specials)], specials[trial%len(specials)]
			}
			salt := salts[trial%len(salts)]
			wide := append(append(relation.Tuple{}, tu...), u, v)
			widePos := append(append([]int{}, pos...), width, width+1)
			if got, want := HashTupleAtWith(tu, pos, salt, u, v), HashTupleAt(wide, widePos, salt); got != want {
				t.Fatalf("width %d, trial %d: HashTupleAtWith=%#x, HashTupleAt(widened)=%#x (tuple %v, pos %v, tail %d %d, salt %#x)",
					width, trial, got, want, tu, pos, u, v, salt)
			}
		}
	}
}

func TestHash64SaltMatters(t *testing.T) {
	if Hash64("abc", 1) == Hash64("abc", 2) {
		t.Error("salt has no effect")
	}
	if Hash64("abc", 1) != Hash64("abc", 1) {
		t.Error("hash not deterministic")
	}
}

func TestEmitters(t *testing.T) {
	ce := NewCountEmitter(relation.CountRing)
	ce.Emit(0, relation.Tuple{1}, 2)
	ce.Emit(1, relation.Tuple{2}, 3)
	if ce.N != 2 || ce.AnnotSum != 5 {
		t.Errorf("count emitter N=%d sum=%d", ce.N, ce.AnnotSum)
	}
	se := NewShardedEmitter(relation.NewSchema(1), 2)
	se.Emit(1, relation.Tuple{5}, 1)
	se.Emit(0, relation.Tuple{6}, 1)
	if rel := se.Rel(); se.N() != 2 || rel.Tuples[0][0] != 6 || rel.Tuples[1][0] != 5 || rel.Annots != nil {
		t.Errorf("sharded emitter collected %v, want partition-major [6] [5] and no annotation column", rel.Tuples)
	}
}

func TestClusterInvalidP(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewCluster(0) did not panic")
		}
	}()
	NewCluster(0)
}
