package relation

import (
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSchemaBasics(t *testing.T) {
	s := NewSchema(1, 3, 5)
	if got := s.Pos(3); got != 1 {
		t.Errorf("Pos(3) = %d, want 1", got)
	}
	if got := s.Pos(4); got != -1 {
		t.Errorf("Pos(4) = %d, want -1", got)
	}
	if !s.Has(5) || s.Has(2) {
		t.Errorf("Has wrong: Has(5)=%v Has(2)=%v", s.Has(5), s.Has(2))
	}
	u := s.Union(NewSchema(5, 2))
	if !u.Equal(NewSchema(1, 3, 5, 2)) {
		t.Errorf("Union = %v", u)
	}
	i := s.Intersect(NewSchema(5, 1, 9))
	if !i.Equal(NewSchema(1, 5)) {
		t.Errorf("Intersect = %v", i)
	}
	m := s.Minus(NewSchema(3))
	if !m.Equal(NewSchema(1, 5)) {
		t.Errorf("Minus = %v", m)
	}
}

func TestSchemaDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewSchema with duplicate attr did not panic")
		}
	}()
	NewSchema(1, 2, 1)
}

func TestSchemaPositionsMissingPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Positions with missing attr did not panic")
		}
	}()
	NewSchema(1, 2).Positions([]Attr{3})
}

func TestRelationAddArityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add with wrong arity did not panic")
		}
	}()
	New("r", NewSchema(1, 2)).Add(1)
}

func TestRelationAddAndProject(t *testing.T) {
	r := New("R", NewSchema(10, 20, 30))
	r.Add(1, 2, 3)
	r.Add(4, 5, 6)
	if r.Size() != 2 {
		t.Fatalf("Size = %d, want 2", r.Size())
	}
	p := r.Project([]Attr{30, 10})
	if !p.Schema.Equal(NewSchema(30, 10)) {
		t.Fatalf("projected schema = %v", p.Schema)
	}
	if p.Tuples[0][0] != 3 || p.Tuples[0][1] != 1 {
		t.Errorf("projected tuple = %v", p.Tuples[0])
	}
	if p.Tuples[1][0] != 6 || p.Tuples[1][1] != 4 {
		t.Errorf("projected tuple = %v", p.Tuples[1])
	}
}

func TestRelationDedup(t *testing.T) {
	r := New("R", NewSchema(1))
	r.Add(7)
	r.Add(7)
	r.Add(8)
	d := r.Dedup()
	if d.Size() != 2 {
		t.Fatalf("Dedup size = %d, want 2", d.Size())
	}
}

func TestRelationAnnotations(t *testing.T) {
	r := New("R", NewSchema(1))
	r.Add(5)
	if r.Annot(0) != 1 {
		t.Errorf("default annot = %d, want 1", r.Annot(0))
	}
	r.AddAnnotated(42, 6)
	if r.Annot(0) != 1 || r.Annot(1) != 42 {
		t.Errorf("annots = %d,%d want 1,42", r.Annot(0), r.Annot(1))
	}
	c := r.Clone()
	c.Annots[1] = 0
	if r.Annot(1) != 42 {
		t.Errorf("Clone did not deep-copy annotations")
	}
}

func TestKeyRoundTrip(t *testing.T) {
	f := func(vals []int64) bool {
		vs := make([]Value, len(vals))
		for i, v := range vals {
			vs[i] = Value(v)
		}
		got := decodeKey(EncodeValues(vs...))
		if len(got) != len(vs) {
			return false
		}
		for i := range vs {
			if got[i] != vs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestKeyOrderMatchesValueOrder(t *testing.T) {
	// Byte-wise key order must match numeric order, including negatives:
	// the sort-based MPC primitives depend on it.
	f := func(a, b int64) bool {
		ka, kb := EncodeValues(Value(a)), EncodeValues(Value(b))
		switch {
		case a < b:
			return ka < kb
		case a > b:
			return ka > kb
		default:
			return ka == kb
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestKeyAtMatchesEncodeValues(t *testing.T) {
	tu := Tuple{10, -20, 30}
	if KeyAt(tu, []int{2, 0}) != EncodeValues(30, 10) {
		t.Error("KeyAt disagrees with EncodeValues")
	}
}

// decodeKey is EncodeValues' inverse: the round trip's decoder.
func decodeKey(k string) []Value {
	vals := make([]Value, len(k)/8)
	for i := range vals {
		vals[i] = Value(binary.BigEndian.Uint64([]byte(k[8*i:8*i+8])) ^ (1 << 63))
	}
	return vals
}

func semiringLaws(t *testing.T, s Semiring) {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	sample := func() int64 {
		// Small values avoid int64 overflow in the count ring; semiring laws
		// are about structure, not range.
		return rng.Int63n(1000) - 500
	}
	for i := 0; i < 500; i++ {
		a, b, c := sample(), sample(), sample()
		if s.Add(a, b) != s.Add(b, a) {
			t.Fatalf("%s: Add not commutative", s.Name)
		}
		if s.Mul(a, b) != s.Mul(b, a) {
			t.Fatalf("%s: Mul not commutative", s.Name)
		}
		if s.Add(s.Add(a, b), c) != s.Add(a, s.Add(b, c)) {
			t.Fatalf("%s: Add not associative", s.Name)
		}
		if s.Mul(s.Mul(a, b), c) != s.Mul(a, s.Mul(b, c)) {
			t.Fatalf("%s: Mul not associative", s.Name)
		}
		if s.Add(a, s.Zero) != a {
			t.Fatalf("%s: Zero not additive identity", s.Name)
		}
		if s.Mul(a, s.One) != a && s.Name != "bool" {
			t.Fatalf("%s: One not multiplicative identity", s.Name)
		}
		if s.Mul(a, s.Add(b, c)) != s.Add(s.Mul(a, b), s.Mul(a, c)) {
			t.Fatalf("%s: Mul does not distribute over Add", s.Name)
		}
		if s.Mul(a, s.Zero) != s.Zero && s.Name != "bool" {
			t.Fatalf("%s: Zero not annihilating", s.Name)
		}
	}
}

func TestSemiringLaws(t *testing.T) {
	semiringLaws(t, CountRing)
	semiringLaws(t, MaxPlusRing)
}

func TestBoolRingLaws(t *testing.T) {
	// BoolRing operates on {0,1} only.
	vals := []int64{0, 1}
	s := BoolRing
	for _, a := range vals {
		for _, b := range vals {
			for _, c := range vals {
				if s.Add(a, b) != s.Add(b, a) || s.Mul(a, b) != s.Mul(b, a) {
					t.Fatal("bool ring not commutative")
				}
				if s.Add(s.Add(a, b), c) != s.Add(a, s.Add(b, c)) {
					t.Fatal("bool ring Add not associative")
				}
				if s.Mul(a, s.Add(b, c)) != s.Add(s.Mul(a, b), s.Mul(a, c)) {
					t.Fatal("bool ring not distributive")
				}
			}
		}
		if s.Add(a, s.Zero) != a || s.Mul(a, s.One) != a || s.Mul(a, s.Zero) != s.Zero {
			t.Fatal("bool ring identities wrong")
		}
	}
}
