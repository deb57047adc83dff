package core_test

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/hypergraph"
	"repro/internal/mpc"
	"repro/internal/runtime"
)

// TestAcyclicAssemblyMatchesReference pins AcyclicJoin's one-Concat
// assembly to the retained per-level one (AcyclicJoinRef): on every acyclic
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
