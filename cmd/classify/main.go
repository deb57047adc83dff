// Command classify prints the Figure 1 classification of the built-in query
// catalog (or of a query given as edge lists) together with attribute
// forests, join trees and minimal length-3 paths.
//
// Usage:
//
//	classify                  # classify the paper's query catalog
//	classify -q "1,2;2,3;3,4" # classify an ad-hoc query (edges of attrs)
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/harness"
	"repro/internal/hypergraph"
	"repro/internal/lint"
	"repro/internal/mpc"
	"repro/internal/relation"
	"repro/internal/stats"
)

func main() {
	query := flag.String("q", "", "ad-hoc query: semicolon-separated edges of comma-separated attribute ids")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "classify: unexpected argument %q: no positional arguments are taken, and flags after one would be ignored\n", flag.Arg(0))
		flag.Usage()
		os.Exit(2)
	}

	if *query == "" {
		fmt.Print(harness.Fig1Classification(harness.DefaultScale()).Render())
		fmt.Println()
		fmt.Print(harness.Fig2Forests())
		fmt.Println()
		fmt.Print(harness.Fig5JoinTree())
		return
	}
	q, err := parseQuery(*query)
	if err != nil {
		fmt.Fprintln(os.Stderr, "classify:", err)
		os.Exit(1)
	}
	describe(q)
}

// printStaticClasses runs the whole-program round and load classifiers
// over the module source and prints the static classes of the dispatched
// algorithm's run body next to its declared ones. Outside a checkout (no
// go.mod above the working directory) the line is silently skipped — the
// declared classes above are still the repolint-verified contract.
func printStaticClasses(name string) {
	root, ok := moduleRoot()
	if !ok {
		return
	}
	classes, err := lint.StaticClasses(root)
	if err != nil {
		return
	}
	if c, ok := classes[name]; ok {
		fmt.Printf("static classes: rounds %s, load %s (whole-program repolint classifiers)\n",
			c.Rounds, c.Load)
	}
}

// moduleRoot walks up from the working directory to the nearest go.mod.
func moduleRoot() (string, bool) {
	dir, err := os.Getwd()
	if err != nil {
		return "", false
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, true
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", false
		}
		dir = parent
	}
}

// printCostDispatch runs cost-based dispatch on a small deterministic
// uniform instance of q and prints the predicted-vs-actual load with the
// full candidate ranking, so a misprediction is visible from the command
// line without the harness.
func printCostDispatch(q *hypergraph.Hypergraph) {
	const n, dom, p, seed = 64, 6, 16, 2019
	in := gen.ForQuery(mpc.NewChildRng(seed, 0), q, n, dom)
	res, err := engine.AutoRun(engine.Job{In: in, P: p, Seed: seed})
	if err != nil {
		fmt.Printf("cost dispatch failed: %v\n", err)
		return
	}
	fmt.Printf("cost dispatch (uniform n=%d dom=%d, p=%d): %s, predicted L = %.1f via %s, measured L = %d, L/pred = %.3f\n",
		n, dom, p, res.Algorithm, res.Predicted, res.PredictedBy, res.Load,
		stats.Ratio(res.Load, res.Predicted))
	fmt.Println("candidates (argmin predicted load first):")
	for _, c := range res.Candidates {
		if c.Rejected != "" {
			fmt.Printf("  %-12s rejected: %s\n", c.Name, c.Rejected)
			continue
		}
		fmt.Printf("  %-12s predicted L = %.1f via %s\n", c.Name, c.Predicted, c.PredictedBy)
	}
}

func parseQuery(s string) (*hypergraph.Hypergraph, error) {
	var edges []hypergraph.AttrSet
	for _, part := range strings.Split(s, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		var attrs []relation.Attr
		for _, f := range strings.Split(part, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil {
				return nil, fmt.Errorf("bad attribute %q: %v", f, err)
			}
			attrs = append(attrs, relation.Attr(v))
		}
		if len(attrs) == 0 {
			return nil, fmt.Errorf("empty edge in %q", s)
		}
		edges = append(edges, hypergraph.NewAttrSet(attrs...))
	}
	if len(edges) == 0 {
		return nil, fmt.Errorf("no edges in %q", s)
	}
	return hypergraph.New(edges...), nil
}

func describe(q *hypergraph.Hypergraph) {
	fmt.Printf("query: %v\n", q)
	cls := q.Classify()
	fmt.Printf("class: %s\n", cls)
	if a, err := engine.Auto(q); err == nil {
		fmt.Printf("engine dispatch: %s (bound %s; declared rounds %s, load %s)\n",
			a.Name(), a.Bound(), a.RoundClass(), a.LoadClass())
		printStaticClasses(a.Name())
	}
	printCostDispatch(q)
	if cls == hypergraph.Cyclic {
		fmt.Println("join tree: none (cyclic)")
		return
	}
	tree, _ := q.GYO()
	fmt.Printf("join tree root: edge %d; parents: %v\n", tree.Root, tree.Parent)
	fmt.Printf("edge cover number ρ: %d\n", q.EdgeCoverNumber())
	if q.IsHierarchical() {
		fmt.Printf("attribute forest:\n%s", q.AttributeForest().String())
	} else if red, _ := q.Reduce(); red.IsHierarchical() {
		fmt.Printf("reduced attribute forest:\n%s", red.AttributeForest().String())
	}
	if p, ok := q.MinimalPath3(); ok {
		fmt.Printf("minimal path of length 3 (Lemma 2): x%d–x%d–x%d–x%d → not r-hierarchical\n",
			p[0], p[1], p[2], p[3])
	} else {
		fmt.Println("no minimal path of length 3 (Lemma 2): r-hierarchical")
	}
}
