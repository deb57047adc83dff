package core_test

import (
	"fmt"
	"reflect"
	"slices"
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
// core/binaryref_test.go), which runs both degree lookups on every join.
// binaryJoin leaves out the semi-join of a side whose every row has a
// partner; routing is a function of a row and the broadcast directory, so
// each server still receives the same rows, only in the side's source
// order. The result therefore has the same schema and every part holds the
// reference's rows as a multiset, and the cluster carries the reference's
// Snapshot with exactly the skipped sides' lookup rounds (3 each) cut out
// and their tuples and exchanges subtracted. Which sides skip is decided
// from the inputs, not by binaryJoin: for a binary join, by the sides of
// the two relations whose every row has a partner; for Yannakakis, every
// side of every step, since after the full reducer no row dangles. Where
// no side skips (the dangling case) the parts stay Equal row for row and
// the Snapshot identical. Cases: Yannakakis over every acyclic catalog
// query and over the random line3 instance at the benchmark's smoke size,
// a Cartesian product (no shared attribute), an unreduced join with
// dangling tuples on both sides, and a hub instance whose heavy directory
// is asserted non-empty — the heavy grids are the only place the router
// hashes a key's degrees. At data-plane widths 1, 2 and 8, another job
// dirties the pools before every run.
func TestBinaryJoinMatchesReference(t *testing.T) {
	type job struct {
		name    string
		p       int
		run     func(c *mpc.Cluster) *mpc.Dist
		ref     func(c *mpc.Cluster) (*mpc.Dist, int, []core.RefSkip)
		skipped int  // sides routed without their semi-join
		gridded bool // the reference's directory must hold a heavy key
	}
	var jobs []job
	yannakakis := func(name string, p int, in *core.Instance) {
		jobs = append(jobs, job{name: name, p: p, skipped: 2 * (len(in.Q.Edges) - 1),
			run: func(c *mpc.Cluster) *mpc.Dist { return core.Yannakakis(c, in, nil, 2019) },
			ref: func(c *mpc.Cluster) (*mpc.Dist, int, []core.RefSkip) {
				res, skips := core.YannakakisRef(c, in, 2019)
				return res, -1, skips
			},
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
		jobs = append(jobs, job{name: name, p: 16, gridded: gridded, skipped: core.PartneredSides(r1, r2),
			run: func(c *mpc.Cluster) *mpc.Dist {
				a, b := load(c)
				return core.BinaryJoin(a, b, relation.CountRing, 5, nil)
			},
			ref: func(c *mpc.Cluster) (*mpc.Dist, int, []core.RefSkip) {
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
				want, heavy, skips := j.ref(ref)
				dirty()
				got := j.run(cur)
				if j.gridded && heavy < 1 {
					t.Fatal("the heavy directory is empty — the case no longer reaches the grids")
				}
				if len(skips) != j.skipped {
					t.Fatalf("the reference noted %d partnered sides, the inputs have %d", len(skips), j.skipped)
				}
				if !got.Schema.Equal(want.Schema) || len(got.Parts) != len(want.Parts) {
					t.Fatalf("result over %v on %d parts, reference over %v on %d",
						got.Schema, len(got.Parts), want.Schema, len(want.Parts))
				}
				if got.Size() == 0 {
					t.Fatal("empty result — the case joins nothing")
				}
				for s := range got.Parts {
					if len(skips) == 0 && !got.Parts[s].Equal(&want.Parts[s]) {
						t.Fatalf("part %d differs from the reference router", s)
					}
					if !slices.Equal(rowMultiset(&got.Parts[s]), rowMultiset(&want.Parts[s])) {
						t.Fatalf("part %d holds other rows than the reference router's", s)
					}
				}
				wantStats, wantComm := withoutSkips(t, ref, skips)
				if !reflect.DeepEqual(cur.Snapshot(), wantStats) || cur.TotalComm() != wantComm {
					t.Fatalf("the join charged %v rounds and %d tuples, want %v and %d (the reference less %d skipped sides)",
						cur.Snapshot().RoundMaxs, cur.TotalComm(), wantStats.RoundMaxs, wantComm, len(skips))
				}
			})
		}
		runtime.SetParallelism(prev)
	}
}

// rowMultiset is part's rows, annotation included, as a sorted list.
func rowMultiset(part *mpc.Columns) []string {
	rows := make([]string, part.Len())
	for i := range rows {
		rows[i] = relation.EncodeTuple(part.Tuple(i)) + relation.EncodeValues(relation.Value(part.Annot(i)))
	}
	slices.Sort(rows)
	return rows
}

// withoutSkips is ref's Snapshot and TotalComm less the noted lookups: each
// one's rounds, which must be a semi-join's 3, cut out of RoundMaxs, and
// its tuples and exchange counters subtracted.
func withoutSkips(t *testing.T, ref *mpc.Cluster, skips []core.RefSkip) (mpc.Stats, int) {
	t.Helper()
	st, comm := ref.Snapshot(), ref.TotalComm()
	maxs, next := []int{}, 0
	for _, sk := range skips {
		if sk.Rounds != 3 {
			t.Fatalf("a reference degree lookup charged %d rounds, want 3", sk.Rounds)
		}
		maxs = append(maxs, st.RoundMaxs[next:sk.Round]...)
		next = sk.Round + sk.Rounds
		comm -= sk.Comm
		st.Exchange.Exchanges -= sk.Exchange.Exchanges
		st.Exchange.Tuples -= sk.Exchange.Tuples
		st.Exchange.ActiveDests -= sk.Exchange.ActiveDests
	}
	st.RoundMaxs = append(maxs, st.RoundMaxs[next:]...)
	return st, comm
}
