package harness

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/runtime"
)

// -update regenerates the golden table bytes from the current code:
//
//	go test ./internal/harness -run TestGoldenTables -update
var updateGolden = flag.Bool("update", false, "rewrite the golden table files")

// goldenTables renders the pinned experiment subset at a small fixed,
// seeded matrix: the Figure 1 classification/dispatch table and the
// Figure 3 join-order experiment (seeded instances through yannakakis,
// line3 and acyclic — every layer from gen through engine to the table
// renderer contributes bytes).
func goldenTables(width int) string {
	prev := runtime.SetParallelism(width)
	defer runtime.SetParallelism(prev)
	s := Scale{P: 16, IN: 1 << 9, Seed: 2019}
	return Fig1Classification(s).Render() + Fig3JoinOrder(s).Render()
}

// TestGoldenTables pins the experiment tables byte-for-byte across
// commits, swept over data-plane widths 1/2/8: the tables must be
// byte-identical to the checked-in golden file at EVERY width. The
// cross-width sweep proves determinism; the golden file proves the bytes
// did not drift since the plan was pinned (an intentional change
// regenerates it with -update).
func TestGoldenTables(t *testing.T) {
	path := filepath.Join("testdata", "tables.golden")
	got := goldenTables(1)
	for _, width := range []int{2, 8} {
		if sw := goldenTables(width); sw != got {
			t.Fatalf("width %d tables differ from width 1 — fix determinism before pinning bytes", width)
		}
	}
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file %s (regenerate with -update): %v", path, err)
	}
	if string(want) != got {
		t.Fatalf("tables differ from %s (intentional change? regenerate with -update):\n--- want ---\n%s\n--- got ---\n%s",
			path, want, got)
	}
}
