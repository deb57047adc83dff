package lint

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"testing"
)

func TestDeterminismFixture(t *testing.T)   { runFixture(t, DeterminismAnalyzer, "determinism") }
func TestChargingFixture(t *testing.T)      { runFixture(t, ChargingAnalyzer, "charging") }
func TestPoolLifecycleFixture(t *testing.T) { runFixture(t, PoolLifecycleAnalyzer, "poollifecycle") }
func TestForkSafetyFixture(t *testing.T)    { runFixture(t, ForkSafetyAnalyzer, "forksafety") }
func TestAllocHygieneFixture(t *testing.T)  { runFixture(t, AllocHygieneAnalyzer, "allochygiene") }
func TestRoundCostFixture(t *testing.T)     { runFixture(t, RoundCostAnalyzer, "roundcost") }
func TestRepoBoundFixture(t *testing.T)     { runFixture(t, RepoBoundAnalyzer, "repobound") }
func TestLoadCostFixture(t *testing.T)      { runFixture(t, LoadCostAnalyzer, "loadcost") }
func TestRepoLoadFixture(t *testing.T)      { runFixture(t, RepoLoadAnalyzer, "repoload") }

// TestRoundFactsAcrossPackages exercises the facts mechanism end to end:
// the chargee package exports round-cost facts, and the caller package
// composes them across the package boundary — the violations it pins exist
// only if the facts actually flowed.
func TestRoundFactsAcrossPackages(t *testing.T) {
	runMultiFixture(t, RoundCostAnalyzer, "roundfacts", []string{"chargee", "caller"})
}

// TestLoadFactsAcrossPackages is the load-axis twin: the caller package's
// violations exist only if the chargee's load facts flowed across the
// package boundary.
func TestLoadFactsAcrossPackages(t *testing.T) {
	runMultiFixture(t, LoadCostAnalyzer, "loadfacts", []string{"chargee", "caller"})
}

// TestSuiteComplete pins the suite's composition: exactly the nine
// contract analyzers, every one carrying the scope flag and a doc string,
// so cmd/repolint loads what DESIGN.md documents.
func TestSuiteComplete(t *testing.T) {
	want := []string{
		"repodeterminism",
		"repocharging",
		"repopoollifecycle",
		"repoforksafety",
		"repoallochygiene",
		"reporoundcost",
		"repobound",
		"repoloadcost",
		"repoload",
	}
	got := Analyzers()
	if len(got) != len(want) {
		t.Fatalf("suite has %d analyzers, want %d", len(got), len(want))
	}
	for i, a := range got {
		if a.Name != want[i] {
			t.Errorf("analyzer %d is %s, want %s", i, a.Name, want[i])
		}
		if a.Doc == "" {
			t.Errorf("%s has no doc", a.Name)
		}
		if a.Flags.Lookup("scope") == nil {
			t.Errorf("%s has no scope flag", a.Name)
		}
	}
}

// TestRepolintSmoke builds cmd/repolint and runs it through the real
// `go vet -vettool` protocol over a clean in-scope package: the driver
// must load all nine analyzers and exit 0.
func TestRepolintSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary and runs go vet")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	tool := filepath.Join(t.TempDir(), "repolint")
	build := exec.Command("go", "build", "-o", tool, "./cmd/repolint")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building repolint: %v\n%s", err, out)
	}
	vet := exec.Command("go", "vet", "-vettool="+tool, "./internal/engine/...")
	vet.Dir = root
	vet.Env = append(os.Environ(), "GOFLAGS=-mod=mod")
	if out, err := vet.CombinedOutput(); err != nil {
		t.Fatalf("go vet -vettool on a clean package: %v\n%s", err, out)
	}
}

// TestContractsMatchCheckedIn makes CONTRACTS.md drift a tier-1 failure:
// the whole-program classifiers must compute, for all registered adapters,
// exactly the classes and charge sites the checked-in table records (the
// same comparison `make contracts-verify` runs through the binary).
func TestContractsMatchCheckedIn(t *testing.T) {
	if testing.Short() {
		t.Skip("typechecks the module and the standard library from source")
	}
	root := filepath.Join("..", "..")
	want, err := os.ReadFile(filepath.Join(root, "CONTRACTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := WriteContracts(&got, root); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("CONTRACTS.md is stale (run `make contracts`); generated:\n%s", got.Bytes())
	}

	// StaticClasses is the same model keyed by name, as cmd/classify reads it.
	classes, err := StaticClasses(root)
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]AdapterClasses{
		"yannakakis": {Rounds: "const", Load: "perP"},
		"naive":      {Rounds: "zero", Load: "zero"},
	} {
		if classes[name] != c {
			t.Errorf("StaticClasses[%s] = %+v, want %+v", name, classes[name], c)
		}
	}
}

// TestStringLitUnquotes pins that adapter fields are read as Go reads them:
// an escaped √ is a √ and a constant is its value, so the bound-prose rule
// and CONTRACTS.md see the string the program sees.
func TestStringLitUnquotes(t *testing.T) {
	const src = `package p

const formula = "IN/p + " + "OUT/p"

var exprs = []any{"plain", ` + "`raw\\n`" + `, "√", "IN/\u221ap", "a\"b", formula, ("paren"), 1, len("x")}
`
	want := []string{"plain", `raw\n`, "√", "IN/√p", `a"b`, "IN/p + OUT/p", "paren", "", ""}

	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}}
	if _, err := (&types.Config{}).Check("p", fset, []*ast.File{f}, info); err != nil {
		t.Fatal(err)
	}
	exprs := f.Decls[1].(*ast.GenDecl).Specs[0].(*ast.ValueSpec).Values[0].(*ast.CompositeLit).Elts
	for i, e := range exprs {
		if got := stringLit(info, e); got != want[i] {
			t.Errorf("stringLit(%s) = %q, want %q", types.ExprString(e), got, want[i])
		}
	}
}

// TestRunClassResolvesNamedRuns covers the run-value forms no registration
// in the tree uses today: a named function resolves through its class (and
// its collected charge sites), and a value that is no function is
// unresolved and unknown on either axis.
func TestRunClassResolvesNamedRuns(t *testing.T) {
	const src = `package p

//lint:rounds const trust the base charge
//lint:load perP trust the base charge
func charge() {}

func algo() { charge() }

var named, notFunc = algo, 1
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}}
	if _, err := (&types.Config{}).Check("p", fset, []*ast.File{f}, info); err != nil {
		t.Fatal(err)
	}
	decls := map[*types.Func]*ast.FuncDecl{}
	var runs []ast.Expr
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			decls[info.Defs[d.Name].(*types.Func)] = d
		case *ast.GenDecl:
			runs = d.Specs[0].(*ast.ValueSpec).Values
		}
	}
	lookup := func(fn *types.Func) (*ast.FuncDecl, *types.Info) { return decls[fn], info }

	rounds := newClassifier(roundsAxis, lookup, nil, nil, false)
	rounds.sites = newSiteIndex()
	class, sites, ok := rounds.runClass(info, runs[0])
	if class != roundsConst || !ok || !reflect.DeepEqual(sites, []string{"p.charge"}) {
		t.Errorf("rounds runClass(algo) = %v, %v, %v; want const, [p.charge], true", class, sites, ok)
	}
	load := newClassifier(loadAxis, lookup, nil, nil, false)
	if class, sites, ok := load.runClass(info, runs[0]); class != loadPerP || !ok || sites != nil {
		t.Errorf("load runClass(algo) = %v, %v, %v; want perP, nil, true", class, sites, ok)
	}
	if class, _, ok := load.runClass(info, runs[1]); class != loadUnknown || ok {
		t.Errorf("load runClass(1) = %v, %v; want unknown, false", class, ok)
	}
}
