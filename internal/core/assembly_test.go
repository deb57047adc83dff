package core_test

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/hypergraph"
	"repro/internal/mpc"
	"repro/internal/relation"
	"repro/internal/runtime"
)

// TestAcyclicAssemblyMatchesReference pins AcyclicJoin's assembly — every
// piece's local join written straight into one result — to the retained
// per-level one (AcyclicJoinRef): on every acyclic
// catalog query and on the doubled instance, at data-plane widths 1, 2 and
// 8, the result has the same schema and its parts are Equal, part for part
// and row for row, and the two clusters are charged identically. Before
// each run another job leaves its own rows in the data plane's pools, so
// neither side runs on clean memory.
func TestAcyclicAssemblyMatchesReference(t *testing.T) {
	type job struct {
		name string
		in   *core.Instance
	}
	var jobs []job
	for i, e := range hypergraph.Catalog() {
		if e.Q.IsAcyclic() {
			jobs = append(jobs, job{e.Name, gen.ForQuery(mpc.NewChildRng(2019, i), e.Q, 256, 12)})
		}
	}
	doubled, err := gen.Build("doubled", mpc.NewRng(2019), 2048, 16384)
	if err != nil {
		t.Fatal(err)
	}
	jobs = append(jobs, job{"doubled", doubled})
	noise := gen.ForQuery(mpc.NewRng(7), hypergraph.LineK(4), 512, 5)
	dirty := func() { core.AcyclicJoin(mpc.NewCluster(16), noise, 7) }

	for _, width := range []int{1, 2, 8} {
		prev := runtime.SetParallelism(width)
		for _, j := range jobs {
			ref, cur := mpc.NewCluster(16), mpc.NewCluster(16)
			dirty()
			want := core.AcyclicJoinRef(ref, j.in, 2019)
			dirty()
			got := core.AcyclicJoin(cur, j.in, 2019)
			if !got.Schema.Equal(want.Schema) || len(got.Parts) != len(want.Parts) {
				t.Fatalf("width %d, %s: result over %v on %d parts, reference over %v on %d",
					width, j.name, got.Schema, len(got.Parts), want.Schema, len(want.Parts))
			}
			for s := range got.Parts {
				if !got.Parts[s].Equal(&want.Parts[s]) {
					t.Fatalf("width %d, %s: part %d differs from the reference assembly", width, j.name, s)
				}
			}
			if !reflect.DeepEqual(cur.Snapshot(), ref.Snapshot()) || cur.TotalComm() != ref.TotalComm() {
				t.Fatalf("width %d, %s: the assembly moved a charge", width, j.name)
			}
		}
		runtime.SetParallelism(prev)
	}
}

// TestLine3AssemblyMatchesReference pins Line3's assembly — the two
// sub-joins' local joins written straight into one result — to the
// retained one (Line3Ref: two BinaryJoins gathered by one mpc.Concat, same
// seeds): on the catalog's line-3 query, the random lower-bound instance,
// the Figure 3 hard instance and a hub instance with rows on both sides of
// the union, at data-plane widths 1, 2 and 8, the
// result has the same schema, its parts are Equal part for part and row
// for row, and the two clusters are charged identically. Before each run
// another job leaves its own rows in the data plane's pools, so neither
// side runs on clean memory.
func TestLine3AssemblyMatchesReference(t *testing.T) {
	catalog := gen.ForQuery(mpc.NewRng(2019), hypergraph.Line3(), 256, 12)
	random, err := gen.Build("random", mpc.NewRng(2019), 2048, 16384)
	if err != nil {
		t.Fatal(err)
	}
	hard, err := gen.Build("hard", mpc.NewRng(2019), 2048, 16384)
	if err != nil {
		t.Fatal(err)
	}
	// A hub B-value of degree 256 in R1 beside 256 of degree 1, so τ splits
	// R1 into both a heavy and a light side.
	r1 := relation.New("R1", relation.NewSchema(1, 2))
	r2 := relation.New("R2", relation.NewSchema(2, 3))
	r3 := relation.New("R3", relation.NewSchema(3, 4))
	for i := 0; i < 256; i++ {
		r1.AddAnnotated(int64(1+i%3), relation.Value(i%64), 0)
		r1.Add(relation.Value(i), relation.Value(1+i))
		r2.Add(relation.Value(i%257), relation.Value(i%16))
		r3.Add(relation.Value(i%16), relation.Value(i))
	}
	hub := core.NewInstance(hypergraph.Line3(), r1, r2, r3)
	jobs := []struct {
		name string
		in   *core.Instance
	}{{"catalog line-3", catalog}, {"random", random}, {"hard", hard}, {"hub", hub}}
	noise := gen.ForQuery(mpc.NewRng(7), hypergraph.Line3(), 512, 5)
	dirty := func() { core.Line3WithTau(mpc.NewCluster(16), noise, 0, 7) }

	union := false // some job has rows on both sides of Q1 ∪ Q2
	for _, width := range []int{1, 2, 8} {
		prev := runtime.SetParallelism(width)
		for _, j := range jobs {
			ref, cur := mpc.NewCluster(16), mpc.NewCluster(16)
			dirty()
			want, pieces := core.Line3Ref(ref, j.in, 2019)
			union = union || pieces == 2
			dirty()
			got := core.Line3WithTau(cur, j.in, 0, 2019)
			if !got.Schema.Equal(want.Schema) || len(got.Parts) != len(want.Parts) {
				t.Fatalf("width %d, %s: result over %v on %d parts, reference over %v on %d",
					width, j.name, got.Schema, len(got.Parts), want.Schema, len(want.Parts))
			}
			for s := range got.Parts {
				if !got.Parts[s].Equal(&want.Parts[s]) {
					t.Fatalf("width %d, %s: part %d differs from the reference assembly", width, j.name, s)
				}
			}
			if !reflect.DeepEqual(cur.Snapshot(), ref.Snapshot()) || cur.TotalComm() != ref.TotalComm() {
				t.Fatalf("width %d, %s: the assembly moved a charge", width, j.name)
			}
		}
		runtime.SetParallelism(prev)
	}
	if !union {
		t.Fatal("no job has rows in both Q1 and Q2 — the test no longer exercises the union")
	}
}
