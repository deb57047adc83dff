package engine

import (
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/hypergraph"
	"repro/internal/stats"
)

// TestCatalog is the behaviour pin for the ordered catalog: per class, the
// candidate names in preference order are the literal Figure 1 rows; names
// are unique, non-empty and priced by stats; All/Names are sorted; and the
// run-by-name-only entries list no class.
func TestCatalog(t *testing.T) {
	rows := []struct {
		class hypergraph.Class
		want  []string
	}{
		{hypergraph.TallFlat, []string{"binhc", "rhier", "acyclic", "yannakakis"}},
		{hypergraph.Hierarchical, []string{"hypercube", "rhier", "acyclic", "yannakakis"}},
		{hypergraph.RHierarchical, []string{"rhier", "acyclic", "yannakakis"}},
		{hypergraph.Acyclic, []string{"line3", "acyclic", "yannakakis"}},
		{hypergraph.Cyclic, []string{"triangle", "naive"}},
	}
	for _, r := range rows {
		var got []string
		for _, a := range catalog {
			if slices.Contains(a.classes, r.class) {
				got = append(got, a.name)
			}
		}
		if !reflect.DeepEqual(got, r.want) {
			t.Errorf("class %s: candidates %v, want the Figure 1 row %v", r.class, got, r.want)
		}
	}

	seen := map[string]bool{}
	for _, a := range catalog {
		if a.name == "" || seen[a.name] {
			t.Errorf("catalog name %q is empty or repeated", a.name)
		}
		seen[a.name] = true
		if _, ok := stats.Priced(a.name); !ok {
			t.Errorf("%s: no stats.Priced row", a.name)
		}
	}
	for _, name := range []string{"line3wc", "count", "aggregate"} {
		if a, ok := Lookup(name); !ok || len(a.classes) != 0 {
			t.Errorf("%s: want a catalog entry that lists no class (found %v)", name, ok)
		}
	}

	names := Names()
	if len(names) != len(catalog) || !sort.StringsAreSorted(names) {
		t.Errorf("Names() = %v, want all %d catalog names sorted", names, len(catalog))
	}
	for i, a := range All() {
		if a.name != names[i] {
			t.Errorf("All()[%d] = %s, want %s", i, a.name, names[i])
		}
	}
}

// TestRegisterRefusesBadNames: an empty name, a duplicate, and a name
// stats.Priced has no row for are init-time wiring errors.
func TestRegisterRefusesBadNames(t *testing.T) {
	for _, name := range []string{"", "yannakakis", "no-predictor-for-this"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Register(%q) did not panic", name)
				}
			}()
			Register(&Spec{name: name})
		}()
	}
	if _, ok := Lookup("no-predictor-for-this"); ok {
		t.Error("a refused registration reached the catalog")
	}
}

// TestCandidatesScorecard pins the rejection reason on a real query: the
// hierarchical class lists hypercube, Q2 is no product, so the scorecard
// shows the shape mismatch, ranked after every runnable candidate.
func TestCandidatesScorecard(t *testing.T) {
	cands := candidates(hypergraph.Q2Hierarchical(), nil)
	want := []string{"rhier", "acyclic", "yannakakis", "hypercube"}
	if len(cands) != len(want) {
		t.Fatalf("scorecard %+v, want %v", cands, want)
	}
	for i, c := range cands {
		if c.Name != want[i] {
			t.Fatalf("scorecard order %+v, want runnable-first %v", cands, want)
		}
		if rejected := c.Name == "hypercube"; (c.Rejected == "Applies rejects the query") != rejected {
			t.Errorf("%s rejected %q", c.Name, c.Rejected)
		}
	}
}

// TestAutoErrorListsCandidates: when nothing covers the query, the error
// names every candidate tried and why each was rejected. No class of the
// real catalog can end up there (acyclic/yannakakis and naive are
// class-general), so the test swaps in a catalog whose only cyclic entry
// is hypercube. Serial only — the catalog is package state.
func TestAutoErrorListsCandidates(t *testing.T) {
	h, _ := Lookup("hypercube")
	onlyProducts := *h
	onlyProducts.classes = []hypergraph.Class{hypergraph.Cyclic}
	old := catalog
	catalog = []*Spec{&onlyProducts}
	defer func() { catalog = old }()

	_, err := Auto(hypergraph.Triangle())
	if err == nil {
		t.Fatal("Auto with no runnable candidate must fail")
	}
	for _, want := range []string{"hypercube: Applies rejects the query", "cyclic"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}

// TestTiebreakModes pins the two tiebreak regimes the dispatcher promises:
// without statistics the Figure 1 preference order decides (triangle before
// the naive oracle), and with statistics an exact load tie falls to the
// declared round class (naive's zero rounds beat triangle's constant).
func TestTiebreakModes(t *testing.T) {
	q := hypergraph.Triangle()
	structural := candidates(q, nil)
	if structural[0].Name != "triangle" {
		t.Errorf("structural tiebreak = %s, want the preference order's triangle", structural[0].Name)
	}
	flat := candidates(q, func(Algorithm) (float64, string) { return 5, "flat" })
	if flat[0].Name != "naive" {
		t.Errorf("equal-load tiebreak = %s, want naive (fewer rounds)", flat[0].Name)
	}
}

// TestRoundRankOrder pins the round-class ordering used for load ties.
func TestRoundRankOrder(t *testing.T) {
	classes := []string{"zero", "const", "log", "loop", "unknown"}
	for i := 1; i < len(classes); i++ {
		if roundRank(classes[i-1]) >= roundRank(classes[i]) {
			t.Errorf("roundRank(%s) should rank before %s", classes[i-1], classes[i])
		}
	}
}
