// Command experiments regenerates every table and figure of the paper's
// evaluation as text tables (see DESIGN.md's per-experiment index).
//
// Usage:
//
//	experiments                 # run everything at the default scale
//	experiments -run fig4       # one experiment
//	experiments -p 128 -in 32768
//	experiments -workers 1      # serial execution (same tables, slower)
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/harness"
	"repro/internal/runtime"
)

func main() {
	exps := harness.Experiments()
	names := "all"
	for _, e := range exps {
		names += "|" + e.Name
	}
	which := flag.String("run", "all", "experiment: "+names)
	p := flag.Int("p", 0, "servers (0 = default scale)")
	inSize := flag.Int("in", 0, "input size (0 = default scale)")
	seed := flag.Uint64("seed", 0, "seed (0 = default scale)")
	workers := flag.Int("workers", 0,
		"simulator parallelism (0 = GOMAXPROCS, 1 = serial; tables are identical for any value)")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "experiments: unexpected argument %q: no positional arguments are taken, and flags after one would be ignored\n", flag.Arg(0))
		flag.Usage()
		os.Exit(2)
	}
	if *p < 0 || *inSize < 0 {
		fmt.Fprintf(os.Stderr, "experiments: -p %d -in %d: sizes cannot be negative\n", *p, *inSize)
		flag.Usage()
		os.Exit(2)
	}

	s := harness.DefaultScale()
	if *p > 0 {
		s.P = *p
	}
	if *inSize > 0 {
		s.IN = *inSize
	}
	if *seed > 0 {
		s.Seed = *seed
	}
	// The one width: experiment cells and everything inside them (batched
	// exchange scatter, parallel sub-clusters, oracle probes) run on
	// runtime.Fork. Tables are byte-identical for every value.
	runtime.SetParallelism(*workers)

	sel, ran := strings.ToLower(*which), false
	for _, e := range exps {
		if sel == "all" || sel == e.Name {
			fmt.Println(e.Render(s))
			ran = true
		}
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "experiments: unknown -run %q (have %s)\n", *which, names)
		os.Exit(2)
	}
}
