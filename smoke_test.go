package repro

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/harness"
	"repro/internal/mpc"
)

// smokeScale is deliberately tiny: the point is that `go test ./...`
// exercises the bench wiring end-to-end, not that it measures anything.
func smokeScale() harness.Scale {
	return harness.Scale{P: 8, IN: 1 << 8, Seed: 2019}
}

// TestSmokeExperimentEndToEnd runs one full experiment — instance
// generation, oracle verification, all four Figure 3 algorithms on the MPC
// simulator, table rendering — with the cells on runtime.Fork.
func TestSmokeExperimentEndToEnd(t *testing.T) {
	tab := harness.Fig3JoinOrder(smokeScale())
	if len(tab.Rows) != 8 {
		t.Fatalf("Fig3 rows = %d, want 8", len(tab.Rows))
	}
	out := tab.Render()
	for _, want := range []string{"one-sided", "doubled", "Line3 (§4.2)", "AcyclicJoin (§5.1)"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
}

// TestSmokeBenchWiring runs the measure() helper through testing.Benchmark
// so the custom load/rounds/OUT metrics the benchmarks report are checked
// by plain `go test`, not only under -bench.
func TestSmokeBenchWiring(t *testing.T) {
	s := smokeScale()
	in := gen.YannakakisHard(s.IN, 8*s.IN)
	res := testing.Benchmark(func(b *testing.B) {
		measure(b, in, s.P, func(c *mpc.Cluster) *mpc.Dist {
			return core.Line3WithTau(c, in, 0, s.Seed)
		})
	})
	if res.Extra["load"] <= 0 {
		t.Errorf("measure reported load = %v, want > 0", res.Extra["load"])
	}
	if res.Extra["rounds"] <= 0 {
		t.Errorf("measure reported rounds = %v, want > 0", res.Extra["rounds"])
	}
	if res.Extra["OUT"] != float64(8*s.IN) {
		t.Errorf("measure reported OUT = %v, want %d", res.Extra["OUT"], 8*s.IN)
	}
}

// TestFrozenBenchCompiles makes the frozen benchmark's pins executable in
// tier-1: bench/ is a module of its own, so `go build ./... && go test
// ./...` never compiles it, and a signature it depends on could change
// unnoticed until the BENCHMARK.json pipeline ran. Vets it with the
// environment bench/run.sh builds under.
func TestFrozenBenchCompiles(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go is not on PATH")
	}
	cmd := exec.Command(goBin, "vet", ".")
	cmd.Dir = "bench"
	cmd.Env = append(os.Environ(), "GOPROXY=off", "GOTOOLCHAIN=local")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet in bench/: %v\n%s", err, out)
	}
}

// TestCLIsRejectStrayArguments: Go's flag package stops at the first
// positional argument, so `experiments fig3 -in 512` used to run all
// thirteen experiments at the default scale and exit 0. Every CLI now
// treats a stray argument as a usage error: exit status 2, the argument
// named on stderr, nothing on stdout.
func TestCLIsRejectStrayArguments(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go is not on PATH")
	}
	bin := t.TempDir()
	for _, tc := range []struct {
		cli   string
		args  []string
		stray string
	}{
		{"experiments", []string{"fig3", "-in", "512"}, "fig3"},
		{"experiments", []string{"-run", "fig1", "extra"}, "extra"},
		{"joinrun", []string{"random", "-in", "1000"}, "random"},
		{"joinrun", []string{"-p", "4", "-in", "64", "8"}, "8"},
		{"classify", []string{"foo"}, "foo"},
		{"classify", []string{"-q", "1,2;2,3", "1,3"}, "1,3"},
	} {
		exe := filepath.Join(bin, tc.cli)
		if _, err := os.Stat(exe); err != nil {
			if out, err := exec.Command(goBin, "build", "-o", exe, "./cmd/"+tc.cli).CombinedOutput(); err != nil {
				t.Fatalf("go build ./cmd/%s: %v\n%s", tc.cli, err, out)
			}
		}
		var stdout, stderr strings.Builder
		cmd := exec.Command(exe, tc.args...)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		if exit, ok := err.(*exec.ExitError); !ok || exit.ExitCode() != 2 {
			t.Errorf("%s %v: %v, want exit status 2", tc.cli, tc.args, err)
		}
		if want := fmt.Sprintf("%s: unexpected argument %q", tc.cli, tc.stray); !strings.Contains(stderr.String(), want) {
			t.Errorf("%s %v: stderr does not say %q:\n%s", tc.cli, tc.args, want, stderr.String())
		}
		if stdout.Len() > 0 {
			t.Errorf("%s %v: ran anyway:\n%s", tc.cli, tc.args, stdout.String())
		}
	}
}

// concurrencyAllowed lists the non-test files that may import sync or
// sync/atomic or contain a go statement. The simulator's concurrency fits
// one paragraph (DESIGN.md, "The parallel experiment runtime"); a new entry
// here is a reviewed decision.
var concurrencyAllowed = map[string]bool{
	"internal/runtime/fork.go":    true, // the one scheduler: goroutines, WaitGroup, token bucket
	"internal/mpc/columns.go":     true, // mpc.Pool's mutex, behind every recycled buffer
	"internal/engine/registry.go": true, // RWMutex around the algorithm registry
}

// TestConcurrencyStaysWhereItIs parses every non-test Go file under
// internal/ and cmd/ and fails on a go statement or a sync / sync/atomic
// import outside concurrencyAllowed, so the next lock or goroutine cannot
// arrive unnoticed. It also fails on a sync.Pool in any non-test Go file
// outside third_party/: the collector empties a sync.Pool, and mpc.Pool is
// the one recycling idiom. `make race` still runs the race detector over
// it all.
func TestConcurrencyStaysWhereItIs(t *testing.T) {
	fset := token.NewFileSet()
	check := func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != "." && (d.Name() == "testdata" || d.Name() == "third_party" || strings.HasPrefix(d.Name(), ".")):
			// Hidden directories hold build output: .bench_build/ref is
			// an archived commit, not this tree's code.
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go"):
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		syncName := ""
		for _, imp := range f.Imports {
			if imp.Path.Value == `"sync"` {
				syncName = "sync"
				if imp.Name != nil {
					syncName = imp.Name.Name
				}
			}
		}
		slash := filepath.ToSlash(path)
		checked := (strings.HasPrefix(slash, "internal/") || strings.HasPrefix(slash, "cmd/")) && !concurrencyAllowed[slash]
		if checked {
			for _, imp := range f.Imports {
				if v := imp.Path.Value; v == `"sync"` || v == `"sync/atomic"` {
					t.Errorf("%s imports %s: not in concurrencyAllowed", path, v)
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				if checked {
					t.Errorf("%s: go statement outside concurrencyAllowed", fset.Position(n.Pos()))
				}
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok && syncName != "" && x.Name == syncName && n.Sel.Name == "Pool" {
					t.Errorf("%s: sync.Pool, which the collector empties; recycle through mpc.Pool", fset.Position(n.Pos()))
				}
			}
			return true
		})
		return nil
	}
	if err := filepath.WalkDir(".", check); err != nil {
		t.Fatal(err)
	}
}
