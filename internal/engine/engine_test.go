package engine_test

import (
	"errors"
	"fmt"
	"reflect"
	stdruntime "runtime"
	"runtime/debug"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/hypergraph"
	"repro/internal/mpc"
	"repro/internal/relation"
	"repro/internal/runtime"
)

// wantRoute is the class-optimal routing the Figure 1 hierarchy prescribes;
// shape-specialized entries are keyed by catalog query where they differ
// from the class default.
var classRoute = map[hypergraph.Class]string{
	hypergraph.TallFlat:      "binhc",
	hypergraph.Hierarchical:  "rhier",
	hypergraph.RHierarchical: "rhier",
	hypergraph.Acyclic:       "acyclic",
	hypergraph.Cyclic:        "triangle",
}

// TestAutoDispatchCatalog asserts that every catalog query routes to an
// algorithm whose Applies accepts it, and that the route is the
// class-optimal one (or a cheaper shape specialization of it).
func TestAutoDispatchCatalog(t *testing.T) {
	specialized := map[string]bool{"line3": true, "hypercube": true, "triangle": true}
	for _, e := range hypergraph.Catalog() {
		a, err := engine.Auto(e.Q)
		if err != nil {
			t.Errorf("%s: Auto failed: %v", e.Name, err)
			continue
		}
		if !a.Applies(e.Q) {
			t.Errorf("%s: Auto chose %s but Applies rejects the query", e.Name, a.Name())
		}
		if want := classRoute[e.Class]; a.Name() != want && !specialized[a.Name()] {
			t.Errorf("%s (class %s): routed to %s, want %s or a shape specialization",
				e.Name, e.Class, a.Name(), want)
		}
	}
}

// TestAutoShapeSpecialization pins the shape-restricted routes: chains to
// line3, products to hypercube, triangles to the §7 algorithm.
func TestAutoShapeSpecialization(t *testing.T) {
	cases := []struct {
		q    *hypergraph.Hypergraph
		want string
	}{
		{hypergraph.Line3(), "line3"},
		{hypergraph.LineK(4), "acyclic"},
		{hypergraph.CartesianK(3), "hypercube"},
		{hypergraph.Triangle(), "triangle"},
		{hypergraph.Q1TallFlat(), "binhc"},
		{hypergraph.Q2Hierarchical(), "rhier"},
		{hypergraph.Q2RHier(), "rhier"},
	}
	for _, c := range cases {
		a, err := engine.Auto(c.q)
		if err != nil {
			t.Fatalf("Auto(%v): %v", c.q, err)
		}
		if a.Name() != c.want {
			t.Errorf("Auto(%v) = %s, want %s", c.q, a.Name(), c.want)
		}
	}
}

// directRun reproduces what engine.Run does for the named algorithm with a
// bare core call: same cluster size, same seed, the returned Dist. The parity
// test asserts the engine adds nothing and loses nothing.
func directRun(t *testing.T, name string, in *core.Instance, p int, seed uint64) (int64, int, int) {
	t.Helper()
	c := mpc.NewCluster(p)
	var res *mpc.Dist
	switch name {
	case "yannakakis":
		res = core.Yannakakis(c, in, nil, seed)
	case "acyclic":
		res = core.AcyclicJoin(c, in, seed)
	case "line3":
		res = core.Line3WithTau(c, in, 0, seed)
	case "line3wc":
		res = core.Line3WorstCase(c, in, seed)
	case "rhier":
		res = core.RHier(c, in, seed)
	case "binhc":
		res = core.BinHC(c, in, seed, false)
	case "hypercube":
		res = core.HyperCubeProduct(c, in, seed)
	case "triangle":
		res = core.Triangle(c, in, seed)
	default:
		t.Fatalf("directRun: no core call for %q", name)
	}
	return int64(res.Size()), c.MaxLoad(), c.Rounds()
}

// TestEngineParityWithCore runs every catalog query through engine.Auto and
// through the equivalent direct core call and requires identical
// (OUT, load, rounds) — the engine is measurement-transparent.
func TestEngineParityWithCore(t *testing.T) {
	const p, seed = 8, uint64(2019)
	for i, e := range hypergraph.Catalog() {
		rng := mpc.NewChildRng(seed, i)
		in := gen.ForQuery(rng, e.Q, 64, 6)
		a, err := engine.Auto(e.Q)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		res, err := engine.Run(a, engine.Job{In: in, P: p, Seed: seed, CheckOracle: true})
		if err != nil {
			t.Errorf("%s via %s: %v", e.Name, a.Name(), err)
			continue
		}
		if !res.Verified {
			t.Errorf("%s via %s: oracle check did not run", e.Name, a.Name())
		}
		out, load, rounds := directRun(t, a.Name(), in, p, seed)
		if res.OUT != out || res.Load != load || res.Rounds != rounds {
			t.Errorf("%s via %s: engine (OUT=%d L=%d R=%d) != core (OUT=%d L=%d R=%d)",
				e.Name, a.Name(), res.OUT, res.Load, res.Rounds, out, load, rounds)
		}
	}
}

// TestEveryRegisteredAlgorithmOnItsHome runs each registered full-join
// algorithm on an instance it applies to, oracle-verified.
func TestEveryRegisteredAlgorithmOnItsHome(t *testing.T) {
	const p, seed = 8, uint64(7)
	rng := mpc.NewRng(seed)
	homes := map[string]*core.Instance{
		"yannakakis": gen.ForQuery(rng, hypergraph.LineK(4), 64, 6),
		"acyclic":    gen.ForQuery(rng, hypergraph.Fig5Example(), 32, 4),
		"line3":      gen.Line3Random(rng, 256, 512),
		"line3wc":    gen.Line3Random(rng, 256, 512),
		"rhier":      gen.RHierSkewed(rng, 2, 8, 64),
		"binhc":      gen.TallFlatSkewed(8, 64),
		"hypercube":  gen.CartesianSizes(8, 4, 2),
		"triangle":   gen.TriangleRandom(rng, 128, 256),
		"naive":      gen.ForQuery(rng, hypergraph.Line2(), 64, 6),
	}
	for _, a := range engine.All() {
		in, ok := homes[a.Name()]
		if !ok {
			continue // scalar/aggregate algorithms are covered below
		}
		res, err := engine.Run(a, engine.Job{In: in, P: p, Seed: seed, CheckOracle: true})
		if err != nil {
			t.Errorf("%s: %v", a.Name(), err)
			continue
		}
		if !res.Verified {
			t.Errorf("%s: not verified", a.Name())
		}
	}
}

// TestNaiveIsCheckedByTheCount runs the naive algorithm, which builds the
// sequential join, on every catalog query with CheckOracle: it is verified
// by core.NaiveCount like every other full join, not trusted as the oracle.
// The second run pins that the count really runs: its emitter empties a
// relation after naive has joined, so the count reads 0 against naive's
// OUT and the check must fail.
func TestNaiveIsCheckedByTheCount(t *testing.T) {
	const p, seed = 4, uint64(11)
	for i, e := range hypergraph.Catalog() {
		in := gen.ForQuery(mpc.NewChildRng(seed, i), e.Q, 48, 5)
		res, err := engine.RunNamed("naive", engine.Job{In: in, P: p, Seed: seed, CheckOracle: true})
		if err != nil {
			t.Errorf("%s: %v", e.Name, err)
			continue
		}
		if !res.Verified {
			t.Errorf("%s: CheckOracle did not verify naive", e.Name)
		}
		if res.OUT == 0 {
			continue
		}
		emptied := emptyAfterJoin{in: in}
		_, err = engine.RunNamed("naive", engine.Job{In: in, P: p, Seed: seed, CheckOracle: true, Emitter: &emptied})
		if !errors.Is(err, engine.ErrVerify) {
			t.Errorf("%s: naive on an instance emptied after the join: err = %v, want ErrVerify", e.Name, err)
		}
	}
}

// emptyAfterJoin is an emitter that replaces the instance's first
// relation by an empty one at the first row it sees.
type emptyAfterJoin struct{ in *core.Instance }

func (e *emptyAfterJoin) Emit(int, relation.Tuple, int64) {
	e.in.Rels[0] = relation.New(e.in.Rels[0].Name, e.in.Rels[0].Schema)
}

// TestScalarAlgorithms covers count and aggregate, whose emissions are not
// the full join: the oracle checks count's scalar and leaves aggregate be.
func TestScalarAlgorithms(t *testing.T) {
	rng := mpc.NewRng(3)
	in := gen.Line3Random(rng, 256, 1024)
	want := core.NaiveCount(in)

	res, err := engine.RunNamed("count", engine.Job{In: in, P: 8, Seed: 3, CheckOracle: true})
	if err != nil {
		t.Fatalf("count: %v", err)
	}
	if res.Annot != want {
		t.Errorf("count: Annot = %d, want %d", res.Annot, want)
	}
	if !res.Verified {
		t.Error("count: CheckOracle did not verify the scalar")
	}
	// A count is checked by its scalar, not by its one emitted row.
	if _, err := engine.RunNamed("count", engine.Job{In: in, P: 8, Seed: 3, Want: want + 1, CheckWant: true}); !errors.Is(err, engine.ErrVerify) {
		t.Errorf("count against Want %d: err = %v, want ErrVerify", want+1, err)
	}

	y := hypergraph.NewAttrSet(2, 3)
	agg, err := engine.RunNamed("aggregate", engine.Job{In: in, P: 8, Seed: 3, GroupBy: y, CheckOracle: true})
	if err != nil {
		t.Fatalf("aggregate: %v", err)
	}
	if agg.Verified {
		t.Error("aggregate: CheckOracle must stand down for grouped emissions")
	}
	if agg.Dist == nil || agg.Dist.Size() == 0 {
		t.Fatal("aggregate: no grouped result")
	}
	var total int64
	for _, it := range agg.Dist.All() {
		total += it.A
	}
	if total != want {
		t.Errorf("aggregate: group counts sum to %d, want %d", total, want)
	}
}

// TestRunVerifyFailure asserts ErrVerify wrapping and that the measurement
// survives the failed check.
func TestRunVerifyFailure(t *testing.T) {
	rng := mpc.NewRng(5)
	in := gen.ForQuery(rng, hypergraph.Line2(), 32, 4)
	res, err := engine.RunNamed("yannakakis", engine.Job{
		In: in, P: 4, Seed: 5, Want: -1, CheckWant: true,
	})
	if !errors.Is(err, engine.ErrVerify) {
		t.Fatalf("err = %v, want ErrVerify", err)
	}
	if res.Load <= 0 {
		t.Errorf("failed verification lost the measurement: %+v", res)
	}
	if res.Verified {
		t.Error("Verified must be false on mismatch")
	}
}

// TestRunRejectsInapplicable asserts Run refuses algorithm/query pairs the
// guarantee does not cover instead of panicking deep inside core.
func TestRunRejectsInapplicable(t *testing.T) {
	rng := mpc.NewRng(9)
	in := gen.TriangleRandom(rng, 64, 128)
	if _, err := engine.RunNamed("yannakakis", engine.Job{In: in, P: 4}); err == nil {
		t.Error("yannakakis on a cyclic query must be rejected")
	}
	if _, err := engine.RunNamed("rhier", engine.Job{In: gen.Line3Random(rng, 64, 128), P: 4}); err == nil {
		t.Error("rhier on a non-r-hierarchical query must be rejected")
	}
}

// TestRegistry covers the misses; TestCatalog pins what is there.
func TestRegistry(t *testing.T) {
	if _, ok := engine.Lookup("no-such-algorithm"); ok {
		t.Error("Lookup invented an algorithm")
	}
	if _, err := engine.RunNamed("no-such-algorithm", engine.Job{}); err == nil {
		t.Error("RunNamed on unknown name must fail")
	}
}

// TestRunContainsPanics asserts the job boundary: an instance an algorithm
// refuses — duplicate rows in a relation whose edge is contained in
// another, which Lookup's directory and foldInto reject loudly — comes back
// as an ErrAborted error naming the job, at data-plane widths 1 and 2 (a
// panic on a runtime.Fork worker is re-raised on the job's goroutine), and
// the goroutine goes on to run a good job that verifies against the oracle.
func TestRunContainsPanics(t *testing.T) {
	q := hypergraph.New(hypergraph.NewAttrSet(1), hypergraph.NewAttrSet(1, 2), hypergraph.NewAttrSet(2))
	r1 := relation.New("R1", relation.NewSchema(1))
	r2 := relation.New("R2", relation.NewSchema(1, 2))
	r3 := relation.New("R3", relation.NewSchema(2))
	for i := 0; i < 50; i++ {
		r1.Add(relation.Value(i % 5))
		r2.Add(relation.Value(i%5), relation.Value(i%7))
		r3.Add(relation.Value(i % 7))
	}
	bad := core.NewInstance(q, r1, r2, r3)
	good := gen.ForQuery(mpc.NewRng(5), hypergraph.Line2(), 32, 4)

	for _, width := range []int{1, 2} {
		prev := runtime.SetParallelism(width)
		for _, name := range []string{"acyclic", "rhier", "binhc"} {
			res, err := engine.RunNamed(name, engine.Job{In: bad, P: 8, Seed: 7})
			if !errors.Is(err, engine.ErrAborted) {
				t.Fatalf("width %d, %s: err = %v, want ErrAborted", width, name, err)
			}
			if msg := err.Error(); !strings.Contains(msg, name) || !strings.Contains(msg, "P=8") || !strings.Contains(msg, "Seed=7") {
				t.Errorf("width %d, %s: error does not name the job: %v", width, name, err)
			}
			if res.Algorithm != name || res.OUT != 0 {
				t.Errorf("width %d, %s: aborted run returned %+v", width, name, res)
			}
		}
		// A malformed instance (fewer relations than edges) fails while
		// dispatch prices it — inside the same boundary, before any
		// algorithm is chosen — or in the named algorithm.
		short := engine.Job{In: &core.Instance{Q: hypergraph.Line3()}, P: 8, Seed: 7}
		for _, c := range []struct {
			who, algo string
			run       func(engine.Job) (engine.Result, error)
		}{
			{"dispatch", "", engine.AutoRun},
			{"yannakakis", "yannakakis", func(j engine.Job) (engine.Result, error) { return engine.RunNamed("yannakakis", j) }},
		} {
			res, err := c.run(short)
			if !errors.Is(err, engine.ErrAborted) {
				t.Fatalf("width %d, %s on a short instance: err = %v, want ErrAborted", width, c.who, err)
			}
			for _, want := range []string{c.who, "P=8", "Seed=7", short.In.Q.String()} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("width %d, %s: error does not name %q: %v", width, c.who, want, err)
				}
			}
			if res.Algorithm != c.algo || res.OUT != 0 {
				t.Errorf("width %d, %s: aborted run returned %+v", width, c.who, res)
			}
		}
		if res, err := engine.RunNamed("yannakakis", engine.Job{In: good, P: 8, CheckOracle: true}); err != nil || !res.Verified {
			t.Errorf("width %d: good job after aborted ones: verified=%v err=%v", width, res.Verified, err)
		}
		runtime.SetParallelism(prev)
	}

	if _, err := engine.RunNamed("yannakakis", engine.Job{In: good, P: -1}); !errors.Is(err, engine.ErrAborted) {
		t.Errorf("P=-1: err = %v, want ErrAborted", err)
	}
	if _, err := engine.Run(nil, engine.Job{In: good}); err == nil || !strings.Contains(err.Error(), "no algorithm") {
		t.Errorf("Run(nil, job): err = %v, want the no-algorithm error", err)
	}
}

// TestMaterializedResultHoldsOneCopy pins the one-copy property: a
// materializing job ends with its output alive once. The last join writes
// its rows in the output schema's order, the table is read off those parts
// without a projection, so Result.Table and Result.Dist share storage, the
// all-ones annotation column is never materialized, and
// what a caller holding the Result keeps alive is the rows (8·w bytes each)
// plus Table's tuple headers (24 bytes each) — not two more copies.
func TestMaterializedResultHoldsOneCopy(t *testing.T) {
	in, err := gen.Build("random", mpc.NewRng(2019), 8192, 131072)
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.RunNamed("yannakakis", engine.Job{In: in, P: 16, Seed: 2019, Materialize: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.OUT < 64<<10 || int64(res.Table.Size()) != res.OUT {
		t.Fatalf("OUT = %d, table holds %d rows: want one table of at least 64 k rows", res.OUT, res.Table.Size())
	}
	if res.Table.Annots != nil {
		t.Errorf("Table.Annots is materialized (%d entries) under the plain ring; nil already means all ones", len(res.Table.Annots))
	}
	for s := range res.Dist.Parts {
		if part := &res.Dist.Parts[s]; part.Len() > 0 {
			if &res.Table.Tuples[0][0] != &part.Tuple(0)[0] {
				t.Errorf("Table's first row is a copy: it does not alias row 0 of Dist.Parts[%d]", s)
			}
			break
		}
	}

	// Heap held by res: the reading with res alive minus the reading after
	// dropping it, each taken after a collection. The data plane's pools
	// are live in both readings (no collection empties them), so nothing
	// but res goes away in between.
	heap := func() uint64 {
		var m stdruntime.MemStats
		stdruntime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	out, width := res.OUT, len(res.Table.Schema)
	stdruntime.GC()
	with := heap()
	stdruntime.KeepAlive(res)
	res = engine.Result{}
	stdruntime.GC()
	without := heap()
	held, limit := int64(with)-int64(without), out*int64(8*width+24)*5/4
	if held > limit {
		t.Errorf("the Result holds %d bytes for %d rows of width %d: more than 1.25 × (8·w + 24) per row = %d — the output is alive more than once",
			held, out, width, limit)
	}
	if held < out*int64(8*width) {
		t.Errorf("the Result holds only %d bytes for %d rows of width %d: the reading does not see the table", held, out, width)
	}
}

// TestAcyclicAssemblesOutputOnce pins what the acyclic algorithm allocates
// on the doubled instance (OUT = 262 144 rows of width 4, 8 MB): the local
// joins of its 2^k sub-joins write straight into one result laid out as
// the output schema, so every output row is written once and never copied.
// Measured 20.36–20.41 MB at width 2 on a warm run with the collector off;
// the ceiling is that plus 10 %, so one copy of the output (+8 MB) fails
// it. Building each sub-join result apart and gathering them onto the
// output schema with one Concat read 28.34 MB; projecting every
// sub-result, folding them pairwise and projecting the union again — 3.5
// copies of the output — read 71–72 MB on cold pools, which also counted
// the pools' fill.
func TestAcyclicAssemblesOutputOnce(t *testing.T) {
	const ceilingMB = 20.41 * 1.1
	in, err := gen.Build("doubled", mpc.NewRng(2019), 8192, 131072)
	if err != nil {
		t.Fatal(err)
	}
	res, mb := warmAllocMB(t, "acyclic", in)
	if res.OUT != 262144 {
		t.Fatalf("OUT = %d, want the doubled instance's 262 144", res.OUT)
	}
	if mb > ceilingMB {
		t.Errorf("acyclic allocates %.1f MB on the doubled instance, ceiling %.1f MB — the output is copied again",
			mb, ceilingMB)
	}
}

// TestBinaryJoinRoutesByDirectory pins what yannakakis allocates on the
// random line3 instance (IN ≈ 8 k, OUT ≈ 16·IN): each binary join semi-joins
// its inputs against the degree table and routes them by the broadcast
// heavy directory, so no input row is copied with its key's degrees
// appended, grown row by row, or carried through the exchange in two extra
// columns. Measured 5.92–5.95 MB at width 2 on a warm run with the
// collector off; the ceiling is that plus 10 %. Widening every row by a
// Lookup multi-search and routing the widened rows read 12.30 MB on cold
// pools, which also counted the pools' fill.
func TestBinaryJoinRoutesByDirectory(t *testing.T) {
	const ceilingMB = 5.95 * 1.1
	in, err := gen.Build("random", mpc.NewRng(2019), 8192, 131072)
	if err != nil {
		t.Fatal(err)
	}
	res, mb := warmAllocMB(t, "yannakakis", in)
	if res.OUT < 8192 {
		t.Fatalf("OUT = %d — the instance no longer exercises an output-dominated join", res.OUT)
	}
	if mb > ceilingMB {
		t.Errorf("yannakakis allocates %.1f MB on the random line3 instance, ceiling %.1f MB — the binary joins widen their inputs again",
			mb, ceilingMB)
	}
}

// warmAllocMB runs the named algorithm on in (p = 16, width 2) twice and
// returns the second run's result and the MB it allocated. The first run
// fills the data plane's pools, which no collection empties, so the second
// draws every scratch value from them; with the collector off while it
// counts, what it allocates is its own parts and result, whatever ran
// before.
func warmAllocMB(t *testing.T, algo string, in *core.Instance) (engine.Result, float64) {
	t.Helper()
	prev := runtime.SetParallelism(2)
	defer runtime.SetParallelism(prev)
	job := engine.Job{In: in, P: 16, Seed: 2019}
	if _, err := engine.RunNamed(algo, job); err != nil {
		t.Fatal(err)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after stdruntime.MemStats
	stdruntime.ReadMemStats(&before)
	res, err := engine.RunNamed(algo, job)
	stdruntime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	return res, float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
}

// TestResultIsTheDist pins the one result path: for every catalog query and
// every catalog entry that applies to it, at data-plane widths 1 and 2,
// everything a Result says about the output is read off the Dist the
// algorithm returned — OUT is its size, Annot its row-order fold, Table its
// rows projected onto the output schema, part-major — and an observer set as
// Job.Emitter is handed exactly Table's rows, in Table's order.
func TestResultIsTheDist(t *testing.T) {
	for _, width := range []int{1, 2} {
		prev := runtime.SetParallelism(width)
		for i, e := range hypergraph.Catalog() {
			in := gen.ForQuery(mpc.NewChildRng(22, i), e.Q, 48, 6)
			for ri, r := range in.Rels {
				r.Annots = make([]int64, r.Size())
				for j := range r.Annots {
					r.Annots[j] = int64(1 + (ri+2*j)%3)
				}
			}
			for _, a := range engine.All() {
				if a.Applies(e.Q) {
					checkResultIsTheDist(t, a, in, width)
				}
			}
		}
		runtime.SetParallelism(prev)
	}
}

func checkResultIsTheDist(t *testing.T, a engine.Algorithm, in *core.Instance, width int) {
	t.Helper()
	const p = 8
	fail := func(format string, args ...any) {
		t.Helper()
		t.Errorf("width %d, %s on %v: %s", width, a.Name(), in.Q, fmt.Sprintf(format, args...))
	}
	job := engine.Job{In: in, P: p, Seed: 22, Materialize: true}
	res, err := engine.Run(a, job)
	if err != nil {
		fail("%v", err)
		return
	}
	if res.Dist == nil {
		fail("Result.Dist is nil")
		return
	}
	if engine.IsFullJoin(a) {
		if !res.Table.Schema.Equal(in.OutputSchema()) {
			fail("Table is over %v, want the output schema %v", res.Table.Schema, in.OutputSchema())
		}
		if res.OUT != int64(res.Dist.Size()) {
			fail("OUT = %d, Dist holds %d rows", res.OUT, res.Dist.Size())
		}
	}
	if a.Name() == "count" {
		if all := res.Dist.All(); len(all) != 1 || len(all[0].T) != 0 || all[0].A != core.NaiveCount(in) {
			fail("Dist = %v, want one empty row annotated %d", all, core.NaiveCount(in))
		}
	}

	// Table is Dist's rows in the emitted layout, part-major; Annot is the
	// fold of their annotations in that order.
	proj, fold := res.Dist.Project(res.Table.Schema).All(), in.Ring.Zero
	if int64(len(proj)) != res.OUT || res.Table.Size() != len(proj) {
		fail("OUT = %d, Table holds %d rows, Dist %d", res.OUT, res.Table.Size(), len(proj))
		return
	}
	for k, it := range proj {
		if !reflect.DeepEqual(res.Table.Tuples[k], it.T) || res.Table.Annot(k) != it.A {
			fail("Table row %d = %v/%d, Dist's is %v/%d", k, res.Table.Tuples[k], res.Table.Annot(k), it.T, it.A)
			return
		}
		fold = in.Ring.Add(fold, it.A)
	}
	if res.Annot != fold {
		fail("Annot = %d, the row-order fold is %d", res.Annot, fold)
	}

	// The one behaviour Job.Emitter keeps: a serial replay of Table.
	count, table := mpc.NewCountEmitter(in.Ring), mpc.NewShardedEmitter(res.Table.Schema, p)
	for _, em := range []mpc.Emitter{count, table} {
		job.Emitter = em
		if again, err := engine.Run(a, job); err != nil || again.OUT != res.OUT || again.Annot != res.Annot {
			fail("the run with an observer returned OUT=%d Annot=%d err=%v, want %d, %d", again.OUT, again.Annot, err, res.OUT, res.Annot)
		}
	}
	if count.N != res.OUT || count.AnnotSum != res.Annot || table.N() != res.OUT {
		fail("observers saw N=%d AnnotSum=%d and %d rows, Result has OUT=%d Annot=%d", count.N, count.AnnotSum, table.N(), res.OUT, res.Annot)
	}
	seen := table.Rel()
	for k := range seen.Tuples {
		if !reflect.DeepEqual(seen.Tuples[k], res.Table.Tuples[k]) || seen.Annot(k) != res.Table.Annot(k) {
			fail("observed row %d = %v/%d, Table's is %v/%d", k, seen.Tuples[k], seen.Annot(k), res.Table.Tuples[k], res.Table.Annot(k))
			return
		}
	}
}

// TestResultDistInOutputLayout: hypercube, acyclic, line3 and yannakakis
// write their result rows straight in the output schema's layout, so the
// Dist a Result carries is over the output schema and the engine's
// projection onto it returns it unchanged. Every catalog query each applies
// to is run, plus a product whose relations' schemas, in order, are not
// the output schema's (their union is (5, 6, 1, 2), the output (1, 2, 5, 6)).
func TestResultDistInOutputLayout(t *testing.T) {
	queries := []*hypergraph.Hypergraph{hypergraph.New(hypergraph.NewAttrSet(5, 6), hypergraph.NewAttrSet(1, 2))}
	for _, e := range hypergraph.Catalog() {
		queries = append(queries, e.Q)
	}
	withRows := map[string]int{}
	for i, q := range queries {
		in := gen.ForQuery(mpc.NewChildRng(46, i), q, 64, 6)
		for _, name := range []string{"hypercube", "acyclic", "line3", "yannakakis"} {
			a, ok := engine.Lookup(name)
			if !ok {
				t.Fatalf("%s is not registered", name)
			}
			if !a.Applies(q) {
				continue
			}
			res, err := engine.Run(a, engine.Job{In: in, P: 8, Seed: 46, CheckOracle: true})
			if err != nil {
				t.Fatalf("%s on %v: %v", name, q, err)
			}
			if res.OUT > 0 {
				withRows[name]++
			}
			if !res.Dist.Schema.Equal(in.OutputSchema()) {
				t.Errorf("%s on %v: Result.Dist is over %v, want the output schema %v", name, q, res.Dist.Schema, in.OutputSchema())
			}
		}
	}
	for _, name := range []string{"hypercube", "acyclic", "line3", "yannakakis"} {
		if withRows[name] == 0 {
			t.Errorf("%s produced no rows on any query — the test no longer exercises its layout", name)
		}
	}
}

// TestMaxPlusTableCarriesOne: under a ring whose One is not 1, an
// unannotated input contributes One, so a full join of three unannotated
// relations under max-plus annotates every row One + One + One = 0. The
// input's filled-in column travels through the join, so Result.Table
// reads it as it is, not as a nil column that reads 1.
func TestMaxPlusTableCarriesOne(t *testing.T) {
	in, err := gen.Build("random", mpc.NewRng(5), 512, 2048)
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.RunNamed("yannakakis", engine.Job{
		In: in, P: 8, Seed: 5, Materialize: true, Ring: &relation.MaxPlusRing,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.Size() == 0 || res.Table.Annots == nil {
		t.Fatalf("table of %d rows, annotation column materialized = %v", res.Table.Size(), res.Table.Annots != nil)
	}
	for i := range res.Table.Tuples {
		if a := res.Table.Annot(i); a != relation.MaxPlusRing.One {
			t.Fatalf("row %d annotated %d, want One = %d", i, a, relation.MaxPlusRing.One)
		}
	}
	if res.Annot != relation.MaxPlusRing.One {
		t.Errorf("Result.Annot = %d, want One = %d", res.Annot, relation.MaxPlusRing.One)
	}
}
