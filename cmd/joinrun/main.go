// Command joinrun executes one engine algorithm on one generated instance
// and reports the measured load, round count and output size next to the
// bound the algorithm is supposed to track. Algorithms and instance
// families both come from registries (internal/engine, internal/gen), so
// the flag surface grows with them; -algo auto routes the query through the
// engine's classification-driven dispatch. Full joins and count are checked
// against the naive oracle; a mismatch prints the report and exits 1.
//
// Usage:
//
//	joinrun                              # auto-dispatch on the random family
//	joinrun -algo line3      -in 16384 -out 131072 -p 64
//	joinrun -algo yannakakis -family hard   -in 16384 -out 131072
//	joinrun -algo auto       -family rhier  -in 16384
//	joinrun -algo triangle   -family triangle -in 16384 -out 65536
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/mpc"
	"repro/internal/stats"
)

func main() {
	algo := flag.String("algo", "auto", "algorithm: auto|"+strings.Join(engine.Names(), "|"))
	family := flag.String("family", "random", "instance family: "+strings.Join(gen.FamilyNames(), "|"))
	inSize := flag.Int("in", 1<<14, "target input size IN")
	outSize := flag.Int("out", 1<<17, "target output size OUT (family-dependent)")
	p := flag.Int("p", 64, "number of servers")
	seed := flag.Uint64("seed", 2019, "random seed")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "joinrun: unexpected argument %q: no positional arguments are taken, and flags after one would be ignored\n", flag.Arg(0))
		flag.Usage()
		os.Exit(2)
	}
	if *p < 1 {
		fmt.Fprintf(os.Stderr, "joinrun: -p %d: need at least one server\n", *p)
		flag.Usage()
		os.Exit(2)
	}

	// Build rejects exactly what the flags can get wrong: an unknown
	// -family, -in < 1, -out < 0.
	in, err := gen.Build(*family, mpc.NewRng(*seed), *inSize, *outSize)
	if err != nil {
		fmt.Fprintln(os.Stderr, "joinrun:", err)
		flag.Usage()
		os.Exit(2)
	}

	job := engine.Job{In: in, P: *p, Seed: *seed, CheckOracle: true}
	var res engine.Result
	if *algo == "auto" {
		// Cost-based dispatch: argmin predicted load over the class's
		// candidates; the error message lists every candidate tried.
		res, err = engine.AutoRun(job)
	} else {
		res, err = engine.RunNamed(*algo, job)
	}
	status, mismatch := "OK", errors.Is(err, engine.ErrVerify)
	switch {
	case mismatch:
		status = fmt.Sprintf("MISMATCH (%v)", err)
	case err != nil:
		fmt.Fprintln(os.Stderr, "joinrun:", err)
		os.Exit(1)
	case !res.Verified:
		status = "not oracle-checked"
	}

	a, _ := engine.Lookup(res.Algorithm)
	out := res.OUT
	if !engine.IsFullJoin(a) {
		out = res.Annot
	}
	fmt.Printf("%s on %s (%s): IN=%d OUT=%d p=%d\n",
		res.Algorithm, *family, in.Q.Classify(), in.IN(), out, *p)
	fmt.Printf("  load L = %d   rounds = %d   bound tracked: %s   verification: %s\n",
		res.Load, res.Rounds, res.Bound, status)
	fmt.Printf("  dispatch: predicted L = %.1f via %s   L/pred = %.3f\n",
		res.Predicted, res.PredictedBy, stats.Ratio(res.Load, res.Predicted))
	printScorecard(res.Candidates)
	fmt.Printf("  comm: total = %d tuples   exchanges = %d (%d tuples batched, %d active destinations)\n",
		res.TotalComm, res.Exchange.Exchanges, res.Exchange.Tuples, res.Exchange.ActiveDests)
	v := stats.Vars{IN: in.IN(), OUT: out, P: *p}
	fmt.Printf("  bounds: linear %s = %.0f   Yannakakis %s = %.0f   paper %s = %.0f\n",
		stats.Linear.Formula(), stats.Linear.Eval(v), stats.Yannakakis, stats.Yannakakis.Eval(v),
		stats.Thm7, stats.Thm7.Eval(v))
	if mismatch {
		// The report above is the measurement; the exit status is the check.
		os.Exit(1)
	}
}

// printScorecard renders the ranked dispatch candidates of an auto run
// (argmin first, rejected candidates last); explicit -algo runs carry none.
func printScorecard(cands []engine.Candidate) {
	if len(cands) == 0 {
		return
	}
	fmt.Println("  candidates (argmin predicted load first):")
	for _, c := range cands {
		if c.Rejected != "" {
			fmt.Printf("    %-12s rejected: %s\n", c.Name, c.Rejected)
			continue
		}
		fmt.Printf("    %-12s predicted L = %.1f via %s\n", c.Name, c.Predicted, c.PredictedBy)
	}
}
