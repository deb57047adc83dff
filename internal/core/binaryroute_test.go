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

// TestBinaryJoinMatchesReference pins binaryJoin's directory router to the
// retained degree-column router (BinaryJoinRef/YannakakisRef,
// core/binaryref_test.go): the result has the same schema and its parts are
// Equal, part for part and row for row, and the two clusters carry the same
// Snapshot, TotalComm and Exchange counters. Cases: Yannakakis over every
// acyclic catalog query and over the random line3 instance at the
// benchmark's smoke size, a Cartesian product (no shared attribute), an
// unreduced join with dangling tuples on both sides, and a hub instance
// whose heavy directory is asserted non-empty — the heavy grids are the only
// place the router hashes a key's degrees. At data-plane widths 1, 2 and 8,
// another job dirties the pools before every run.
func TestBinaryJoinMatchesReference(t *testing.T) {
	type job struct {
		name    string
		p       int
		run     func(c *mpc.Cluster) *mpc.Dist
		ref     func(c *mpc.Cluster) (*mpc.Dist, int)
		gridded bool // the reference's directory must hold a heavy key
	}
	var jobs []job
	yannakakis := func(name string, p int, in *core.Instance) {
		jobs = append(jobs, job{name: name, p: p,
			run: func(c *mpc.Cluster) *mpc.Dist { return core.Yannakakis(c, in, nil, 2019) },
			ref: func(c *mpc.Cluster) (*mpc.Dist, int) { return core.YannakakisRef(c, in, 2019), -1 },
		})
	}
	for i, e := range hypergraph.Catalog() {
		if e.Q.IsAcyclic() {
			yannakakis(e.Name, 16, gen.ForQuery(mpc.NewChildRng(2019, i), e.Q, 256, 12))
		}
	}
	line3, err := gen.Build("random", mpc.NewRng(2019), 1024, 16384)
	if err != nil {
		t.Fatal(err)
	}
	yannakakis("random line3", 64, line3)

	// binary adds a BinaryJoin of two relations, loaded unreduced.
	binary := func(name string, r1, r2 *relation.Relation, gridded bool) {
		load := func(c *mpc.Cluster) (*mpc.Dist, *mpc.Dist) { return mpc.FromRelation(c, r1), mpc.FromRelation(c, r2) }
		jobs = append(jobs, job{name: name, p: 16, gridded: gridded,
			run: func(c *mpc.Cluster) *mpc.Dist {
				a, b := load(c)
				return core.BinaryJoin(a, b, relation.CountRing, 5, nil)
			},
			ref: func(c *mpc.Cluster) (*mpc.Dist, int) {
				a, b := load(c)
				return core.BinaryJoinRef(a, b, relation.CountRing, 5)
			},
		})
	}
	rng := mpc.NewRng(29)
	left, right := relation.New("R1", relation.NewSchema(1)), relation.New("R2", relation.NewSchema(2))
	for i := 0; i < 60; i++ {
		left.AddAnnotated(int64(1+i%3), relation.Value(i))
		right.AddAnnotated(int64(1+i%2), relation.Value(rng.Intn(1000)))
	}
	binary("cartesian", left, right, true)

	dangling1, dangling2 := relation.New("R1", relation.NewSchema(1, 2)), relation.New("R2", relation.NewSchema(2, 3))
	for i := 0; i < 300; i++ { // keys 20..59 meet; 0..19 only left, 60..79 only right
		dangling1.Add(relation.Value(rng.Intn(1000)), relation.Value(rng.Intn(60)))
		dangling2.Add(relation.Value(20+rng.Intn(60)), relation.Value(rng.Intn(1000)))
	}
	binary("dangling", dangling1, dangling2, false)

	// Two hub keys whose degrees pass L0 on both sides, among light keys.
	hub1, hub2 := relation.New("R1", relation.NewSchema(1, 2)), relation.New("R2", relation.NewSchema(2, 3))
	for i := 0; i < 400; i++ {
		hub1.AddAnnotated(int64(1+i%4), relation.Value(i), relation.Value([]int{7, -1, i % 97}[i%3]))
		hub2.AddAnnotated(int64(1+i%3), relation.Value([]int{7, -1, i % 89}[i%3]), relation.Value(-i))
	}
	binary("hub", hub1, hub2, true)

	noise := gen.ForQuery(mpc.NewRng(7), hypergraph.LineK(4), 512, 5)
	dirty := func() { core.Yannakakis(mpc.NewCluster(16), noise, nil, 7) }

	for _, width := range []int{1, 2, 8} {
		prev := runtime.SetParallelism(width)
		for _, j := range jobs {
			t.Run(fmt.Sprintf("width=%d/%s", width, j.name), func(t *testing.T) {
				ref, cur := mpc.NewCluster(j.p), mpc.NewCluster(j.p)
				dirty()
				want, heavy := j.ref(ref)
				dirty()
				got := j.run(cur)
				if j.gridded && heavy < 1 {
					t.Fatal("the heavy directory is empty — the case no longer reaches the grids")
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
						t.Fatalf("part %d differs from the reference router", s)
					}
				}
				if !reflect.DeepEqual(cur.Snapshot(), ref.Snapshot()) || cur.TotalComm() != ref.TotalComm() ||
					cur.Exchange() != ref.Exchange() {
					t.Fatal("the router moved a charge")
				}
			})
		}
		runtime.SetParallelism(prev)
	}
}
