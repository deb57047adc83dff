package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/stats"
)

// enginePkgPath is the registry package whose Register calls define the
// algorithm catalog rendered into CONTRACTS.md.
const enginePkgPath = "repro/internal/engine"

// contractsModel is the whole-program classification state shared by
// WriteContracts and StaticClasses: the typechecked engine package, one
// classifier per axis over a whole-program function index, and the
// extracted adapter registrations.
type contractsModel struct {
	engine       *modulePkg
	rounds, load *classifier
	adapters     []adapterLit
}

// loadContractsModel typechecks the engine package and every repro/...
// dependency from source (so cross-package classes come from real bodies
// instead of serialized facts) and wires both classifiers over the shared
// function index.
func loadContractsModel(root string) (*contractsModel, error) {
	ld, err := newModuleLoader(root)
	if err != nil {
		return nil, err
	}
	engine, err := ld.load(enginePkgPath)
	if err != nil {
		return nil, fmt.Errorf("loading %s: %v", enginePkgPath, err)
	}

	// Whole-program function index over every module package the engine
	// transitively pulled in.
	type body struct {
		fd   *ast.FuncDecl
		info *types.Info
	}
	bodies := map[*types.Func]body{}
	for _, mp := range ld.pkgs {
		if mp.err != nil || mp.info == nil {
			continue
		}
		for _, f := range mp.files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if fn, ok := mp.info.Defs[fd.Name].(*types.Func); ok {
					bodies[fn] = body{fd, mp.info}
				}
			}
		}
	}
	whole := func(ax *axis) *classifier {
		return newClassifier(ax, func(fn *types.Func) (*ast.FuncDecl, *types.Info) {
			return bodies[fn].fd, bodies[fn].info
		}, nil, nil, false)
	}

	adapters := parseAdapters(engine.info, engine.files)
	if len(adapters) == 0 {
		return nil, fmt.Errorf("no Register(&adapter{...}) calls found in %s", enginePkgPath)
	}
	m := &contractsModel{engine: engine, rounds: whole(roundsAxis), load: whole(loadAxis), adapters: adapters}
	m.rounds.sites = newSiteIndex()
	return m, nil
}

// classify returns the static class names of a's run body on both axes
// (unknown when there is no run value to resolve) and the declared charge
// sites the body reaches, direct plus transitive.
func (m *contractsModel) classify(a adapterLit) (rounds, load string, sites []string) {
	r, l := roundsUnknown, loadUnknown
	if a.run != nil {
		r, sites, _ = m.rounds.runClass(m.engine.info, a.run)
		l, _, _ = m.load.runClass(m.engine.info, a.run)
	}
	return roundsAxis.names[r], loadAxis.names[l], sites
}

// AdapterClasses is the static classification of one registered algorithm's
// run body, both axes, by class name.
type AdapterClasses struct {
	Rounds string
	Load   string
}

// StaticClasses computes, whole-program from source, the static round and
// load classes of every registered algorithm's run body, keyed by the
// adapter name. root is the module root directory (the one holding go.mod).
// cmd/classify uses it to print static classes next to the dispatch
// decision.
func StaticClasses(root string) (map[string]AdapterClasses, error) {
	m, err := loadContractsModel(root)
	if err != nil {
		return nil, err
	}
	out := map[string]AdapterClasses{}
	for _, a := range m.adapters {
		rounds, load, _ := m.classify(a)
		out[a.fields["name"].val] = AdapterClasses{Rounds: rounds, Load: load}
	}
	return out, nil
}

// WriteContracts renders the round/communication contract table for every
// algorithm registered in the engine package: its declared rounds and load
// classes, the static classes the two classifiers compute for its run
// body, the bound row it tracks, the row dispatch prices it by, and the
// declared charging primitives the body can reach. root is the module
// root directory (the one holding go.mod).
//
// The generator shares its classifiers with the reporoundcost and
// repoloadcost analyzers but runs them whole-program through a source
// module loader, so cross-package classes come from real bodies instead of
// serialized facts.
func WriteContracts(w io.Writer, root string) error {
	m, err := loadContractsModel(root)
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "# Round/communication contracts\n\n")
	fmt.Fprintf(w, "Generated by `repolint -contracts` (`make contracts`); verified against\n")
	fmt.Fprintf(w, "the working tree by `make contracts-verify`. Do not edit by hand.\n\n")
	fmt.Fprintf(w, "Per registered algorithm: the machine-checked round class from its\n")
	fmt.Fprintf(w, "`rounds:` declaration and the class the static round classifier computes\n")
	fmt.Fprintf(w, "for its run body (lattice `zero < const < log < loop < unknown`; the\n")
	fmt.Fprintf(w, "repobound analyzer enforces static ≤ declared and bound row ≤ declared);\n")
	fmt.Fprintf(w, "the machine-checked load class from its `load:` declaration and the class\n")
	fmt.Fprintf(w, "the static load classifier computes (lattice `zero < const < perP < frac <\n")
	fmt.Fprintf(w, "linear < unknown`; the repoload analyzer enforces static ≤ declared and\n")
	fmt.Fprintf(w, "bound row ≤ declared); the load bound the algorithm tracks; and the\n")
	fmt.Fprintf(w, "predicted-load formula cost-based dispatch (`engine.AutoCost`) evaluates\n")
	fmt.Fprintf(w, "for the algorithm at (IN, OUT estimate, p). Both bound columns render rows\n")
	fmt.Fprintf(w, "of the one bound table in `internal/stats/bounds.go`. The charge sites\n")
	fmt.Fprintf(w, "below are the `//lint:rounds`-declared primitives each run body can reach,\n")
	fmt.Fprintf(w, "with both of their classes.\n\n")
	fmt.Fprintf(w, "| algorithm | declared rounds | static rounds | declared load | static load | load bound | predicted load |\n")
	fmt.Fprintf(w, "|---|---|---|---|---|---|---|\n")

	type row struct {
		name  string
		sites []string
	}
	var rows []row
	for _, a := range m.adapters {
		name, declLoad := a.fields["name"].val, a.fields["load"].val
		rounds, load, sites := m.classify(a)
		predicted, ok := stats.Priced(name)
		if !ok {
			return fmt.Errorf("%s has no row in stats.Priced", name)
		}
		bound := a.fields["bound"].val
		if _, ok := stats.Lookup(bound); !ok {
			return fmt.Errorf("%s's bound %q is not a row of the stats bound table", name, bound)
		}
		fmt.Fprintf(w, "| %s | %s | %s | %s | %s | %v | %s |\n", name, a.fields["rounds"].val, rounds, declLoad, load, stats.BoundID(bound), predicted.Formula())
		rows = append(rows, row{name: name, sites: sites})
	}

	fmt.Fprintf(w, "\n## Charge sites\n")
	for _, r := range rows {
		fmt.Fprintf(w, "\n### %s\n\n", r.name)
		if len(r.sites) == 0 {
			fmt.Fprintf(w, "- (no declared charging primitives reachable)\n")
			continue
		}
		for _, s := range r.sites {
			fn := m.rounds.sites.fns[s]
			fmt.Fprintf(w, "- %s (rounds %s, load %s)\n", s, roundsAxis.names[m.rounds.classifyFuncRef(fn)], loadAxis.names[m.load.classifyFuncRef(fn)])
		}
	}
	return nil
}

// modulePkg is one typechecked package of the module under analysis.
type modulePkg struct {
	pkg   *types.Package
	info  *types.Info
	files []*ast.File
	err   error
}

// moduleLoader typechecks module packages from source, chaining to a
// source-based importer for the standard library. It is the offline
// substitute for go/packages (not vendored): the module layout is the
// import path with the module prefix swapped for the root directory.
type moduleLoader struct {
	fset   *token.FileSet
	root   string
	module string
	pkgs   map[string]*modulePkg
	std    types.Importer
}

func newModuleLoader(root string) (*moduleLoader, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	module := ""
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			module = strings.TrimSpace(rest)
			break
		}
	}
	if module == "" {
		return nil, fmt.Errorf("no module line in %s/go.mod", root)
	}
	fset := token.NewFileSet()
	return &moduleLoader{
		fset:   fset,
		root:   root,
		module: module,
		pkgs:   map[string]*modulePkg{},
		std:    importer.ForCompiler(fset, "source", nil),
	}, nil
}

// Import implements types.Importer over module and standard-library paths.
func (l *moduleLoader) Import(path string) (*types.Package, error) {
	if !strings.HasPrefix(path, l.module+"/") && path != l.module {
		return l.std.Import(path)
	}
	mp, err := l.load(path)
	if err != nil {
		return nil, err
	}
	return mp.pkg, nil
}

// load parses and typechecks one module package (memoized).
func (l *moduleLoader) load(path string) (*modulePkg, error) {
	if mp, ok := l.pkgs[path]; ok {
		return mp, mp.err
	}
	mp := &modulePkg{}
	l.pkgs[path] = mp

	dir := filepath.Join(l.root, strings.TrimPrefix(path, l.module))
	entries, err := os.ReadDir(dir)
	if err != nil {
		mp.err = err
		return mp, err
	}
	var names []string
	for _, e := range entries {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") {
			continue
		}
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, n), nil, parser.ParseComments)
		if err != nil {
			mp.err = err
			return mp, err
		}
		mp.files = append(mp.files, f)
	}
	if len(mp.files) == 0 {
		mp.err = fmt.Errorf("no Go files in %s", dir)
		return mp, mp.err
	}

	mp.info = &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: l}
	mp.pkg, mp.err = conf.Check(path, l.fset, mp.files, mp.info)
	return mp, mp.err
}
