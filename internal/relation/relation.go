// Package relation provides the data model shared by all join algorithms:
// attributes, tuples, schemas and (optionally annotated) relations.
//
// The model follows the paper's tuple-based setting: a tuple is an atomic
// unit that assigns a Value to every attribute of its relation's schema.
// Annotations (for join-aggregate queries, Section 6 of the paper) are
// carried alongside tuples and combined through a commutative Semiring.
package relation

import (
	"fmt"
	"strings"
)

// Attr identifies an attribute (a vertex of the query hypergraph).
// Attributes are small integers; cmd tools map them to names for display.
type Attr int

// Value is a single attribute value. Domains are integral, which loses no
// generality for join processing (dictionary-encode anything else).
type Value int64

// Tuple is an assignment of values to the attributes of a schema, aligned
// positionally with the schema.
type Tuple []Value

// Clone returns a deep copy of t.
func (t Tuple) Clone() Tuple {
	c := make(Tuple, len(t))
	copy(c, t)
	return c
}

// Schema is an ordered list of distinct attributes.
type Schema []Attr

// NewSchema returns a schema over the given attributes, which must be
// distinct.
func NewSchema(attrs ...Attr) Schema {
	s := make(Schema, len(attrs))
	copy(s, attrs)
	seen := make(map[Attr]bool, len(attrs))
	for _, a := range attrs {
		if seen[a] {
			panic(fmt.Sprintf("relation: duplicate attribute %d in schema", a))
		}
		seen[a] = true
	}
	return s
}

// Pos returns the position of attribute a in s, or -1 if absent.
func (s Schema) Pos(a Attr) int {
	for i, x := range s {
		if x == a {
			return i
		}
	}
	return -1
}

// Has reports whether a is part of the schema.
func (s Schema) Has(a Attr) bool { return s.Pos(a) >= 0 }

// Positions resolves each attribute to its position in s. It panics if any
// attribute is absent: callers resolve projections at plan time, where a
// missing attribute is a programming error, not a data error.
func (s Schema) Positions(attrs []Attr) []int {
	ps := make([]int, len(attrs))
	for i, a := range attrs {
		p := s.Pos(a)
		if p < 0 {
			panic(fmt.Sprintf("relation: attribute %d not in schema %v", a, s))
		}
		ps[i] = p
	}
	return ps
}

// Union returns the attributes of s followed by those of t not already in s.
func (s Schema) Union(t Schema) Schema {
	out := make(Schema, len(s), len(s)+len(t))
	copy(out, s)
	for _, a := range t {
		if !out.Has(a) {
			out = append(out, a)
		}
	}
	return out
}

// Intersect returns the attributes present in both schemas, in s's order.
func (s Schema) Intersect(t Schema) Schema {
	var out Schema
	for _, a := range s {
		if t.Has(a) {
			out = append(out, a)
		}
	}
	return out
}

// Minus returns the attributes of s not present in t, in s's order.
func (s Schema) Minus(t Schema) Schema {
	var out Schema
	for _, a := range s {
		if !t.Has(a) {
			out = append(out, a)
		}
	}
	return out
}

// Equal reports whether the schemas list the same attributes in the same
// order.
func (s Schema) Equal(t Schema) bool {
	if len(s) != len(t) {
		return false
	}
	for i := range s {
		if s[i] != t[i] {
			return false
		}
	}
	return true
}

// String renders the schema as "(x1,x2,...)" using attribute ids.
func (s Schema) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, a := range s {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "x%d", int(a))
	}
	b.WriteByte(')')
	return b.String()
}

// Relation is a named set of tuples over a schema. Annots, when non-nil,
// holds one semiring annotation per tuple (Section 6); len(Annots) must then
// equal len(Tuples).
type Relation struct {
	Name   string
	Schema Schema
	Tuples []Tuple
	Annots []int64
}

// New returns an empty relation with the given name and schema.
func New(name string, schema Schema) *Relation {
	return &Relation{Name: name, Schema: schema}
}

// Add appends a tuple built from vals, aligned with the schema.
func (r *Relation) Add(vals ...Value) {
	if len(vals) != len(r.Schema) {
		panic(fmt.Sprintf("relation %s: tuple arity %d != schema arity %d", r.Name, len(vals), len(r.Schema)))
	}
	t := make(Tuple, len(vals))
	copy(t, vals)
	r.Tuples = append(r.Tuples, t)
	if r.Annots != nil {
		r.Annots = append(r.Annots, 1)
	}
}

// AddAnnotated appends a tuple with an explicit annotation, materializing
// the annotation column (with 1s for earlier tuples) if needed.
func (r *Relation) AddAnnotated(annot int64, vals ...Value) {
	r.Add(vals...)
	if r.Annots == nil {
		r.Annots = make([]int64, len(r.Tuples))
		for i := range r.Annots {
			r.Annots[i] = 1
		}
	}
	r.Annots[len(r.Tuples)-1] = annot
}

// Size returns the number of tuples.
func (r *Relation) Size() int { return len(r.Tuples) }

// Annot returns the annotation of tuple i, defaulting to 1 when the
// relation is unannotated — the One of the count and Boolean rings, but not
// of max-plus, whose callers read a missing column as the ring's One.
func (r *Relation) Annot(i int) int64 {
	if r.Annots == nil {
		return 1
	}
	return r.Annots[i]
}

// Clone returns a deep copy of r.
func (r *Relation) Clone() *Relation {
	c := &Relation{Name: r.Name, Schema: append(Schema(nil), r.Schema...)}
	c.Tuples = make([]Tuple, len(r.Tuples))
	for i, t := range r.Tuples {
		c.Tuples[i] = t.Clone()
	}
	if r.Annots != nil {
		c.Annots = append([]int64(nil), r.Annots...)
	}
	return c
}

// Project returns a new relation over attrs, preserving tuple order and
// multiplicity (it does not deduplicate; use Dedup for set semantics).
func (r *Relation) Project(attrs []Attr) *Relation {
	pos := r.Schema.Positions(attrs)
	out := New(r.Name+"_proj", NewSchema(attrs...))
	out.Tuples = make([]Tuple, len(r.Tuples))
	for i, t := range r.Tuples {
		pt := make(Tuple, len(pos))
		for j, p := range pos {
			pt[j] = t[p]
		}
		out.Tuples[i] = pt
	}
	if r.Annots != nil {
		out.Annots = append([]int64(nil), r.Annots...)
	}
	return out
}

// Dedup returns a copy of r with duplicate tuples removed (first occurrence
// kept). Annotations are not combined; use semiring aggregation for that.
func (r *Relation) Dedup() *Relation {
	out := New(r.Name, r.Schema)
	seen := make(map[string]bool, len(r.Tuples))
	for i, t := range r.Tuples {
		k := EncodeTuple(t)
		if seen[k] {
			continue
		}
		seen[k] = true
		out.Tuples = append(out.Tuples, t.Clone())
		if r.Annots != nil {
			if out.Annots == nil {
				out.Annots = []int64{}
			}
			out.Annots = append(out.Annots, r.Annots[i])
		}
	}
	return out
}

// String renders a compact description, not the tuples.
func (r *Relation) String() string {
	return fmt.Sprintf("%s%v[%d tuples]", r.Name, r.Schema, len(r.Tuples))
}
