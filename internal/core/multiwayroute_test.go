package core_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/hypergraph"
	"repro/internal/mpc"
	"repro/internal/relation"
	"repro/internal/runtime"
)

// TestMultiwayKeyedJoinMatchesReference pins MultiwayKeyedJoin's per-key
// HyperCube (degree table, directory, cube) to the retained body
// (MultiwayKeyedJoinRef, core/multiwayref_test.go): the result has the same
// schema and its parts are Equal, part for part and row for row, and the
// two clusters carry the same Snapshot, TotalComm and Exchange counters.
// Cases: two hub keys among light ones, asserted to get two cubes,
// the empty key (HyperCubeProduct's Cartesian product), keys missing from
// one relation, and AcyclicJoin against AcyclicJoinMultiwayRef on the
// doubled instance and on the Figure 5 query, the second asserted to reach
// step (3.1.3). At data-plane
// widths 1, 2 and 8, another job dirties the pools before every run.
func TestMultiwayKeyedJoinMatchesReference(t *testing.T) {
	type job struct {
		name string
		run  func(c *mpc.Cluster) *mpc.Dist
		// ref returns the reference result and how often it took the path
		// the case is about: cubes given, or step (3.1.3) joins run.
		ref  func(c *mpc.Cluster) (*mpc.Dist, int)
		uses int // the least count ref must report
	}
	var jobs []job
	// keyed adds a MultiwayKeyedJoin of rels, loaded unreduced, on key.
	keyed := func(name string, key relation.Schema, cubes int, rels ...*relation.Relation) {
		load := func(c *mpc.Cluster) []*mpc.Dist {
			dists := make([]*mpc.Dist, len(rels))
			for i, r := range rels {
				dists[i] = mpc.FromRelation(c, r)
			}
			return dists
		}
		jobs = append(jobs, job{name: name, uses: cubes,
			run: func(c *mpc.Cluster) *mpc.Dist {
				return core.MultiwayKeyedJoin(key, load(c), nil, relation.CountRing, 11)
			},
			ref: func(c *mpc.Cluster) (*mpc.Dist, int) {
				return core.MultiwayKeyedJoinRef(key, load(c), relation.CountRing, 11)
			},
		})
	}
	rng := mpc.NewRng(33)

	// Keys 7 and 8 have degree 60 in each of three relations, past the
	// chosen load: two cubes side by side, laid out in key order. Key 9
	// (degree 45) and keys 100..139 are light.
	var hub []*relation.Relation
	for r := 0; r < 3; r++ {
		rel := relation.New("R", relation.NewSchema(1, relation.Attr(2+r)))
		for i := 0; i < 165; i++ {
			rel.AddAnnotated(int64(1+i%3), relation.Value(7+i%11/4), relation.Value(rng.Intn(1000)))
		}
		for i := 0; i < 120; i++ {
			rel.Add(relation.Value(100+rng.Intn(40)), relation.Value(rng.Intn(1000)))
		}
		hub = append(hub, rel)
	}
	keyed("hubs", relation.NewSchema(1), 2, hub...)

	var product []*relation.Relation
	for r, n := range []int{40, 24, 9} {
		rel := relation.New("R", relation.NewSchema(relation.Attr(1+r)))
		for i := 0; i < n; i++ {
			rel.Add(relation.Value(rng.Intn(1 << 20)))
		}
		product = append(product, rel)
	}
	keyed("empty key", relation.Schema{}, 1, product...)

	// Keys 0..29 in R1 and R3, 10..39 in R2: only 10..29 join.
	var missing []*relation.Relation
	for r, lo := range []int{0, 10, 0} {
		rel := relation.New("R", relation.NewSchema(1, relation.Attr(2+r)))
		for i := 0; i < 150; i++ {
			rel.Add(relation.Value(lo+rng.Intn(30)), relation.Value(rng.Intn(1000)))
		}
		missing = append(missing, rel)
	}
	keyed("missing key", relation.NewSchema(1), 0, missing...)

	// acyclic adds an AcyclicJoin against the reference whose step (3.1.3)
	// joins run on the retained body.
	acyclic := func(name string, in *core.Instance, reaches int) {
		jobs = append(jobs, job{name: name, uses: reaches,
			run: func(c *mpc.Cluster) *mpc.Dist { return core.AcyclicJoin(c, in, 2019) },
			ref: func(c *mpc.Cluster) (*mpc.Dist, int) { return core.AcyclicJoinMultiwayRef(c, in, 2019) },
		})
	}
	// The doubled instance never reaches step (3.1.3) — no generated family
	// does — so it pins only the rest of AcyclicJoin around the rewrite; the
	// catalog's Figure 5 query at the assembly test's size does reach it.
	doubled, err := gen.Build("doubled", mpc.NewRng(2019), 2048, 16384)
	if err != nil {
		t.Fatal(err)
	}
	acyclic("acyclic doubled", doubled, 0)
	for i, e := range hypergraph.Catalog() {
		if e.Name == "Figure 5 acyclic example" {
			acyclic("acyclic figure 5", gen.ForQuery(mpc.NewChildRng(2019, i), e.Q, 256, 12), 1)
		}
	}

	noise := gen.ForQuery(mpc.NewRng(7), hypergraph.LineK(4), 512, 5)
	dirty := func() { core.AcyclicJoin(mpc.NewCluster(16), noise, 7) }

	for _, width := range []int{1, 2, 8} {
		prev := runtime.SetParallelism(width)
		for _, j := range jobs {
			t.Run(fmt.Sprintf("width=%d/%s", width, j.name), func(t *testing.T) {
				ref, cur := mpc.NewCluster(16), mpc.NewCluster(16)
				dirty()
				want, used := j.ref(ref)
				dirty()
				got := j.run(cur)
				if used < j.uses {
					t.Fatalf("the reference took the path the case is about %d times, want ≥ %d", used, j.uses)
				}
				if !got.Schema.Equal(want.Schema) || len(got.Parts) != len(want.Parts) {
					t.Fatalf("result over %v on %d parts, reference over %v on %d",
						got.Schema, len(got.Parts), want.Schema, len(want.Parts))
				}
				if got.Size() == 0 {
					t.Fatal("empty result — the case joins nothing")
				}
				for s := range got.Parts {
					if !got.Parts[s].Equal(&want.Parts[s]) {
						t.Fatalf("part %d differs from the reference", s)
					}
				}
				if !reflect.DeepEqual(cur.Snapshot(), ref.Snapshot()) || cur.TotalComm() != ref.TotalComm() ||
					cur.Exchange() != ref.Exchange() {
					t.Fatal("the rewrite moved a charge")
				}
			})
		}
		runtime.SetParallelism(prev)
	}
}
