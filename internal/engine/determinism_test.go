package engine_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/hypergraph"
	"repro/internal/mpc"
	"repro/internal/runtime"
)

// renderCatalogRuns executes every catalog query at the given data-plane
// width — through Auto dispatch, and then through every other full-join
// algorithm that applies, so the one-round grid algorithms dispatch never
// picks (line3wc, binhc, hypercube) are pinned too — materializing the
// result into Result.Table, and renders every observable of the Result —
// counts, load, rounds, comm and exchange statistics, and the materialized
// table itself — into one string.
func renderCatalogRuns(t *testing.T, width int) string {
	t.Helper()
	prev := runtime.SetParallelism(width)
	defer runtime.SetParallelism(prev)

	var b strings.Builder
	for i, e := range hypergraph.Catalog() {
		in := gen.ForQuery(mpc.NewChildRng(2019, i), e.Q, 256, 12)
		auto, err := engine.Auto(e.Q)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		algos := []engine.Algorithm{auto}
		for _, a := range engine.All() {
			if a != auto && engine.IsFullJoin(a) && a.Applies(e.Q) && a.Name() != "naive" {
				algos = append(algos, a)
			}
		}
		for _, a := range algos {
			res, err := engine.Run(a, engine.Job{In: in, P: 16, Seed: 2019, Materialize: true})
			if err != nil {
				t.Fatalf("%s: %v", e.Name, err)
			}
			fmt.Fprintf(&b, "%s %s OUT=%d annot=%d L=%d rounds=%d comm=%d exch=%+v\n",
				e.Name, res.Algorithm, res.OUT, res.Annot, res.Load, res.Rounds,
				res.TotalComm, res.Exchange)
			fmt.Fprintf(&b, "  table(%d): %v %v\n", res.Table.Size(), res.Table.Tuples, res.Table.Annots)
		}
	}
	return b.String()
}

// TestEngineDeterministicAcrossWidths is the data plane's end-to-end
// guarantee: every engine result — including the materialized table and
// the per-part annotation fold — is byte-identical between the
// serial reference (width 1) and parallel widths. Run under -race (the Makefile ci target does) this
// also proves the batched exchange, the parallel sub-clusters, the pooled
// record columns, and the result fold are data-race free.
func TestEngineDeterministicAcrossWidths(t *testing.T) {
	serial := renderCatalogRuns(t, 1)
	for _, w := range []int{2, 8} {
		if got := renderCatalogRuns(t, w); got != serial {
			t.Fatalf("width %d differs from serial:\n--- reference ---\n%s\n--- got ---\n%s",
				w, serial, got)
		}
	}
}
