package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
)

// adapterLit is one extracted Register(&adapter{...}) registration.
type adapterLit struct {
	pos    token.Pos
	fields map[string]adapterField // keyed fields: name, bound, rounds, load, …
	run    ast.Expr                // run: field value (nil if absent)
}

// adapterField is one keyed field of a registration: its string value — a
// literal or a constant — ("" for anything else) and where it stands.
type adapterField struct {
	val string
	pos token.Pos
}

// parseAdapters extracts every Register(&T{...}) composite-literal
// registration from the files, in source order. Shared by the registry
// analyzers and the CONTRACTS.md generator.
func parseAdapters(info *types.Info, files []*ast.File) []adapterLit {
	var out []adapterLit
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(info, call)
			if fn == nil || fn.Name() != "Register" || len(call.Args) == 0 {
				return true
			}
			arg := ast.Unparen(call.Args[0])
			if ue, ok := arg.(*ast.UnaryExpr); ok && ue.Op == token.AND {
				arg = ast.Unparen(ue.X)
			}
			lit, ok := arg.(*ast.CompositeLit)
			if !ok {
				return true
			}
			a := adapterLit{pos: lit.Pos(), fields: map[string]adapterField{}}
			for _, elt := range lit.Elts {
				kv, ok := elt.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				key, ok := kv.Key.(*ast.Ident)
				if !ok {
					continue
				}
				if key.Name == "run" {
					a.run = kv.Value
				} else {
					a.fields[key.Name] = adapterField{val: stringLit(info, kv.Value), pos: kv.Value.Pos()}
				}
			}
			out = append(out, a)
			return true
		})
	}
	return out
}

// stringLit returns the value of a constant string expression — a literal
// or a named constant such as stats.AcyclicFormula — as the type checker
// evaluated it ("" for anything else).
func stringLit(info *types.Info, e ast.Expr) string {
	if v := info.Types[e].Value; v != nil && v.Kind() == constant.String {
		return constant.StringVal(v)
	}
	return ""
}

// newRegistryAnalyzer builds an axis's registry checker: every
// `Register(&adapter{...})` in the engine registry must carry a
// machine-readable declaration on the axis (`<axis>: "<class>"`, from the
// classes a registered algorithm may claim), the static class of its run
// body (computed by the axis's cost analyzer from the charging facts) must
// not exceed it and must not be unknown, and the human-readable `bound`
// string must not contradict it (the axis's boundClaim rule).
func newRegistryAnalyzer(ax *axis, cost *analysis.Analyzer, name, doc string) *analysis.Analyzer {
	an := &analysis.Analyzer{Name: name, Doc: doc, Requires: []*analysis.Analyzer{cost}}
	an.Flags.String("scope", enginePkgPath,
		"comma-separated package paths to check (\"all\" for every package)")
	declarable := ax.names[ax.adapterMin:ax.unknown()]
	an.Run = func(pass *analysis.Pass) (interface{}, error) {
		if !inScope(an.Flags.Lookup("scope").Value.String(), pass.Pkg.Path()) {
			return nil, nil
		}
		ignores, report := passReporter(pass)
		cl := pass.ResultOf[cost].(*classifier)

		// Only non-test files register algorithms.
		var files []*ast.File
		for _, f := range pass.Files {
			if !isTestFile(pass.Fset, f.Pos()) {
				files = append(files, f)
			}
		}

		for _, a := range parseAdapters(pass.TypesInfo, files) {
			name := a.fields["name"].val
			if name == "" {
				name = "adapter"
			}
			decl, ok := a.fields[ax.name]
			if !ok {
				report(a.pos, "%s has no %s declaration: add %s: %q matching its Figure 1 %s", name, ax.name, ax.name, strings.Join(declarable, "|"), ax.figure1)
				continue
			}
			declared, ok := ax.parse(decl.val)
			if !ok || declared < ax.adapterMin {
				report(decl.pos, "%s declares invalid %s class %q (want %s)", name, ax.noun, decl.val, orList(declarable))
				continue
			}
			bound := a.fields["bound"]
			if claim := ax.boundClaim(bound.val, declared); claim != "" {
				report(bound.pos, "%s's bound string %q claims %s", name, bound.val, claim)
			}
			if a.run == nil {
				report(a.pos, "%s has no run function to classify", name)
				continue
			}
			class := ax.unknown()
			if cl != nil { // nil: the cost analyzer's scope skipped this package
				class, _, _ = cl.runClass(pass.TypesInfo, a.run)
			}
			if class == ax.unknown() {
				report(a.run.Pos(), "%s's run body classifies as unknown %s; restructure it or declare its callees so the class resolves", name, ax.unknownAs)
				continue
			}
			if class > declared {
				report(decl.pos, "%s's run body reaches charges of %s %s, which exceeds its declared %s %q", name, ax.reaches, ax.names[class], ax.name, decl.val)
			}
		}
		ignores.reportUnused(pass)
		return nil, nil
	}
	return an
}
