package lint

import (
	"go/ast"
	"go/types"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// loadCensus type-checks, through the contracts loader, the non-test code
// of every package under internal/, cmd/ and examples/, and returns the
// packages with every package-level name they declare — function, method,
// variable, constant or type — mapped to its declaration.
func loadCensus(t *testing.T) ([]*modulePkg, map[types.Object]ast.Node) {
	t.Helper()
	if testing.Short() {
		t.Skip("typechecks the module and the standard library from source")
	}
	root := filepath.Join("..", "..")
	list := exec.Command("go", "list", "./internal/...", "./cmd/...", "./examples/...")
	list.Dir = root
	paths, err := list.Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	ld, err := newModuleLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	var pkgs []*modulePkg
	decls := map[types.Object]ast.Node{}
	declare := func(mp *modulePkg, id *ast.Ident, d ast.Node) {
		if id.Name != "_" {
			decls[mp.info.Defs[id]] = d
		}
	}
	for _, path := range strings.Fields(string(paths)) {
		mp, err := ld.load(path)
		if err != nil {
			t.Fatalf("loading %s: %v", path, err)
		}
		pkgs = append(pkgs, mp)
		for _, f := range mp.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					declare(mp, d.Name, d)
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch spec := spec.(type) {
						case *ast.ValueSpec:
							for _, id := range spec.Names {
								declare(mp, id, spec)
							}
						case *ast.TypeSpec:
							declare(mp, spec.Name, spec)
						}
					}
				}
			}
		}
	}
	return pkgs, decls
}

// reached calls f once on every package pkgs import, transitively, and on
// pkgs themselves.
func reached(pkgs []*modulePkg, f func(p *types.Package)) {
	seen := map[*types.Package]bool{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if !seen[p] {
			seen[p] = true
			f(p)
			for _, imp := range p.Imports() {
				visit(imp)
			}
		}
	}
	for _, mp := range pkgs {
		visit(mp.pkg)
	}
}

// satisfiesInterface reports whether fn is a method by which its receiver
// type implements some interface, declared in a package pkgs reach, that
// has a method of fn's name. Such a method is called through the
// interface, where no identifier names it.
func satisfiesInterface(pkgs []*modulePkg, fn *types.Func) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := typeName(recv.Type()).Type()
	found := false
	check := func(it *types.Interface) {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == fn.Name() && (types.Implements(t, it) || types.Implements(types.NewPointer(t), it)) {
				found = true
			}
		}
	}
	reached(pkgs, func(p *types.Package) {
		for _, name := range p.Scope().Names() {
			if it, ok := p.Scope().Lookup(name).Type().Underlying().(*types.Interface); ok {
				check(it)
			}
		}
	})
	return found
}

// Reasons a function may stand without a production caller.
const (
	benchPin    = "the frozen bench/ module calls it; ROADMAP item 12 un-pins bench/'s internals"
	items5and14 = "ROADMAP items 5 (rhier on the data plane) and 14 (light-key placement) decide whether it runs or goes"
	crossTest   = "other packages' tests build on it, so it cannot move into a _test.go file"
)

// callerlessAllowed is every package-level name under internal/ that may
// stand without a production use, named pkg.Name or pkg.Type.Method, each
// with the reason it stays. The list only shrinks:
// TestEveryDeclarationHasACaller pins its length, and an entry that gains
// a caller, or goes, must leave it.
var callerlessAllowed = map[string]string{
	"mpc.Dist.ReplicateBy":       benchPin,
	"mpc.NewCountEmitter":        benchPin,
	"mpc.NewShardedEmitter":      benchPin,
	"mpc.ShardedEmitter.N":       benchPin,
	"mpc.ShardedEmitter.Rel":     benchPin,
	"primitives.DistinctByKey":   benchPin,
	"primitives.MultiNumbering":  benchPin,
	"stats.Predict":              benchPin,
	"engine.Run":                 benchPin,
	"engine.Spec.Applies":        benchPin,
	"engine.Spec.Run":            benchPin,
	"primitives.ParallelPacking": items5and14,
	"primitives.AllocateServers": items5and14,
	"primitives.Range.Width":     items5and14,
	"primitives.AntiJoin":        items5and14,
	"mpc.Cluster.Snapshot":       "the tests' ledger-equality hook: tests of every package compare whole ledgers through it",
	"mpc.Columns.Equal":          crossTest,
	"gen.Zipf":                   crossTest,
	"gen.WithDangling":           crossTest,
	"gen.CartesianSizes":         crossTest,
	"relation.BoolRing":          crossTest,
}

// TestEveryDeclarationHasACaller is the caller census: every function,
// method, variable, constant and type declared at package level in the
// non-test code under internal/ is referenced by non-test code of
// internal/, cmd/ or examples/ outside its own declaration, satisfies an
// interface, runs as init, or is on callerlessAllowed. Code that only
// tests use belongs in the tests.
func TestEveryDeclarationHasACaller(t *testing.T) {
	pkgs, decls := loadCensus(t)
	const allowed = 21
	if len(callerlessAllowed) != allowed {
		t.Errorf("callerlessAllowed has %d entries, want %d: the list only shrinks (lower the pin when an entry goes)", len(callerlessAllowed), allowed)
	}
	used := map[types.Object]bool{}
	for _, mp := range pkgs {
		for id, obj := range mp.info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				obj = fn.Origin()
			}
			if d := decls[obj]; d == nil || id.Pos() < d.Pos() || id.Pos() >= d.End() {
				used[obj] = true
			}
		}
	}
	orphan := map[string]bool{}
	for obj := range decls {
		if used[obj] || !strings.HasPrefix(obj.Pkg().Path(), "repro/internal/") || obj.Name() == "init" {
			continue
		}
		name := obj.Pkg().Name() + "." + obj.Name()
		if fn, ok := obj.(*types.Func); ok {
			if satisfiesInterface(pkgs, fn) {
				continue
			}
			name = fn.Pkg().Name() + "." + releaseName(fn)
		}
		orphan[name] = true
		if _, ok := callerlessAllowed[name]; !ok {
			t.Errorf("%s has no use outside tests: delete it, or move it into the package's _test.go files", name)
		}
	}
	for name, reason := range callerlessAllowed {
		if reason == "" {
			t.Errorf("callerlessAllowed[%s] gives no reason", name)
		}
		if !orphan[name] {
			t.Errorf("callerlessAllowed[%s] has a caller now, or is gone: drop it from the list", name)
		}
	}
}

// TestLintNameTablesResolve: every name in the analyzers' tables of
// function names is declared by the module's non-test code (a pool pair's
// Type.Method as a method of that type), so a renamed or deleted function
// cannot leave an entry that matches nothing. orderSinkMethods alone may
// name a standard-library method: its WriteString is strings.Builder's.
func TestLintNameTablesResolve(t *testing.T) {
	pkgs, decls := loadCensus(t)
	declared := map[string]bool{}
	for obj := range decls {
		if fn, ok := obj.(*types.Func); ok {
			declared[fn.Name()] = true
			declared[releaseName(fn)] = true
		}
	}
	methods := map[string]bool{} // of every type in a reached package, standard library included
	reached(pkgs, func(p *types.Package) {
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				ms := types.NewMethodSet(types.NewPointer(tn.Type()))
				for i := 0; i < ms.Len(); i++ {
					methods[ms.At(i).Obj().Name()] = true
				}
			}
		}
	})
	pools := map[string]bool{}
	for get, put := range poolPairs {
		pools[get], pools[put] = true, true
	}
	for _, tab := range []struct {
		name  string
		names map[string]bool
		std   bool
	}{
		{"commFuncs", commFuncs, false},
		{"chargeOnlyFuncs", chargeOnlyFuncs, false},
		{"chargeMethods", chargeMethods, false},
		{"orderSinkMethods", orderSinkMethods, true},
		{"poolPairs", pools, false},
	} {
		for name := range tab.names {
			if !declared[name] && !(tab.std && methods[name]) {
				t.Errorf("%s names %s, which no non-test code declares", tab.name, name)
			}
		}
	}
}
