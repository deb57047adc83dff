package harness

import (
	"strings"
	"testing"

	"repro/internal/runtime"
)

// renderAll regenerates the full experiment matrix at width w (experiment
// cells, batched exchange scatter, parallel sub-clusters, parallel oracle
// all run on runtime.Fork), and returns the concatenated rendered tables.
func renderAll(w int) string {
	prev := runtime.SetParallelism(w)
	defer runtime.SetParallelism(prev)
	s := Scale{P: 16, IN: 1 << 9, Seed: 2019}
	var b strings.Builder
	for _, e := range Experiments() {
		b.WriteString(e.Render(s))
	}
	return b.String()
}

// TestDeterminismAcrossWorkers is the parallel runtime's core guarantee:
// the full experiment matrix rendered at width 1 must be byte-identical to
// an 8-wide run — same instances (child seeds depend only on task
// indices), same loads, same rounds, same result counts, same row order.
// Run under -race (the Makefile ci target does) this also proves the
// forked cells, the batched exchange, and the parallel inner loops are
// data-race free.
func TestDeterminismAcrossWorkers(t *testing.T) {
	serial := renderAll(1)
	parallel := renderAll(8)
	if serial != parallel {
		t.Fatalf("workers=8 output differs from workers=1:\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s",
			serial, parallel)
	}
	// And an odd width that cannot tile any experiment's task count evenly.
	if odd := renderAll(3); odd != serial {
		t.Fatalf("workers=3 output differs from workers=1")
	}
}
