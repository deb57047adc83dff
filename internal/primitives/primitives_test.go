package primitives

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/mpc"
	"repro/internal/relation"
	"repro/internal/runtime"
)

// buildDist returns a distributed relation over schema (1,2) with n tuples
// whose key attribute 1 is drawn from [0, keys) by gen.
func buildDist(p, n, keys int, seed int64) (*mpc.Cluster, *mpc.Dist) {
	rng := rand.New(rand.NewSource(seed))
	r := relation.New("R", relation.NewSchema(1, 2))
	for i := 0; i < n; i++ {
		r.Add(relation.Value(rng.Intn(keys)), relation.Value(i))
	}
	c := mpc.NewCluster(p)
	return c, mpc.FromRelation(c, r)
}

// keepFound is a Lookup emit that keeps the x items its directory holds.
func keepFound(out *mpc.Columns, it mpc.Item, r LookupResult) {
	if r.Found {
		out.Append(it.T, it.A)
	}
}

func TestSumByKeyMatchesNaive(t *testing.T) {
	c, d := buildDist(8, 500, 37, 1)
	got := SumByKey(d, []relation.Attr{1}, relation.CountRing, 7)
	want := map[relation.Value]int64{}
	for _, it := range d.All() {
		want[it.T[0]] += it.A
	}
	check := map[relation.Value]int64{}
	for _, it := range got.All() {
		if _, dup := check[it.T[0]]; dup {
			t.Fatalf("duplicate key %v in SumByKey output", it.T[0])
		}
		check[it.T[0]] = it.A
	}
	if len(check) != len(want) {
		t.Fatalf("key count %d != %d", len(check), len(want))
	}
	for k, v := range want {
		if check[k] != v {
			t.Errorf("key %v: got %d want %d", k, check[k], v)
		}
	}
	if c.MaxLoad() > 500 {
		t.Errorf("absurd load %d", c.MaxLoad())
	}
}

func TestSumByKeySkewStaysLinear(t *testing.T) {
	// One key holds all n tuples; the combiner must keep the load ~n/p,
	// not n.
	p, n := 8, 800
	r := relation.New("R", relation.NewSchema(1, 2))
	for i := 0; i < n; i++ {
		r.Add(5, relation.Value(i))
	}
	c := mpc.NewCluster(p)
	d := mpc.FromRelation(c, r)
	base := c.MaxLoad() // n/p from input
	got := SumByKey(d, []relation.Attr{1}, relation.CountRing, 3)
	if got.Size() != 1 || got.All()[0].A != int64(n) {
		t.Fatalf("SumByKey wrong on skew: %v", got.All())
	}
	if c.MaxLoad() > 2*base+2*p {
		t.Errorf("skewed SumByKey load %d exceeds linear bound (base %d)", c.MaxLoad(), base)
	}
}

func TestCountByKeyIgnoresAnnotations(t *testing.T) {
	c := mpc.NewCluster(4)
	r := relation.New("R", relation.NewSchema(1))
	r.AddAnnotated(100, 1)
	r.AddAnnotated(200, 1)
	d := mpc.FromRelation(c, r)
	got := CountByKey(d, []relation.Attr{1}, 1)
	if got.Size() != 1 || got.All()[0].A != 2 {
		t.Errorf("CountByKey = %v", got.All())
	}
}

func TestTotalCount(t *testing.T) {
	_, d := buildDist(4, 100, 10, 2)
	if got := TotalCount(d); got != 100 {
		t.Errorf("TotalCount = %d, want 100", got)
	}
}

func TestLookupExactMatch(t *testing.T) {
	c, x := buildDist(8, 300, 20, 3)
	deg := CountByKey(x, []relation.Attr{1}, 11)
	got := AttachAnnot(x, []relation.Attr{1}, deg, []relation.Attr{1}, relation.CountRing, false)
	if got.Size() != 300 {
		t.Fatalf("AttachAnnot size = %d", got.Size())
	}
	want := map[relation.Value]int64{}
	for _, it := range x.All() {
		want[it.T[0]]++
	}
	for _, it := range got.All() {
		if it.A != want[it.T[0]] {
			t.Errorf("tuple %v annot %d, want %d", it.T, it.A, want[it.T[0]])
		}
	}
	_ = c
}

func TestLookupMissingKeys(t *testing.T) {
	c := mpc.NewCluster(4)
	x := relation.New("X", relation.NewSchema(1))
	for i := 0; i < 10; i++ {
		x.Add(relation.Value(i))
	}
	dRel := relation.New("D", relation.NewSchema(1))
	dRel.AddAnnotated(7, 3) // only key 3 present
	dx := mpc.FromRelation(c, x)
	dd := mpc.FromRelation(c, dRel)
	kept := Lookup(dx, []relation.Attr{1}, dd, []relation.Attr{1}, dx.Schema, keepFound)
	if kept.Size() != 1 || kept.All()[0].T[0] != 3 {
		t.Errorf("Lookup keep-found = %v", kept.All())
	}
}

// TestLookupDuplicateDirectoryPanics: a directory key held twice panics at
// every width, wherever the two records land — inside one chunk, on both
// sides of a chunk boundary (the second record meets the first only as
// its chunk's carry), or with an empty probe, whose short-circuit must not
// skip the check.
func TestLookupDuplicateDirectoryPanics(t *testing.T) {
	cases := []struct {
		name      string
		probe, dk []relation.Value
	}{
		// Six records at p = 2, three per chunk: d2 d2 x5 | x6 x7 x8.
		{"one_chunk", []relation.Value{5, 6, 7, 8}, []relation.Value{2, 2}},
		// x0 x1 d2 | d2 x5 x6.
		{"straddling", []relation.Value{0, 1, 5, 6}, []relation.Value{2, 2}},
		{"empty_probe", nil, []relation.Value{2, 2}},
	}
	key := []relation.Attr{1}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, b := range []int{1, 2, 8} {
				prev := runtime.SetParallelism(b)
				c := mpc.NewCluster(2)
				x, d := mpc.NewDist(c, relation.NewSchema(1)), mpc.NewDist(c, relation.NewSchema(1))
				for i, v := range tc.probe {
					x.Parts[i%2].Append(relation.Tuple{v}, 1)
				}
				for i, v := range tc.dk {
					d.Parts[i%2].Append(relation.Tuple{v}, 1)
				}
				msg := func() (msg string) {
					defer func() { msg = fmt.Sprint(recover()) }()
					Lookup(x, key, d, key, x.Schema, keepFound)
					return ""
				}()
				runtime.SetParallelism(prev)
				if !strings.Contains(msg, "duplicate key") {
					t.Fatalf("b=%d: duplicate directory key gave %q, want a duplicate-key panic", b, msg)
				}
			}
		})
	}
}

func TestSemiJoinAndAntiJoin(t *testing.T) {
	c := mpc.NewCluster(4)
	x := relation.New("X", relation.NewSchema(1, 2))
	for i := 0; i < 20; i++ {
		x.Add(relation.Value(i%5), relation.Value(i))
	}
	f := relation.New("F", relation.NewSchema(3))
	f.Add(1)
	f.Add(3)
	f.Add(3) // duplicate: SemiJoin must dedup the filter side
	dx := mpc.FromRelation(c, x)
	df := mpc.FromRelation(c, f)
	semi := SemiJoin(dx, []relation.Attr{1}, df, []relation.Attr{3})
	anti := AntiJoin(dx, []relation.Attr{1}, df, []relation.Attr{3})
	if semi.Size() != 8 {
		t.Errorf("SemiJoin size = %d, want 8", semi.Size())
	}
	for _, it := range semi.All() {
		if it.T[0] != 1 && it.T[0] != 3 {
			t.Errorf("SemiJoin kept %v", it.T)
		}
	}
	if anti.Size() != 12 {
		t.Errorf("AntiJoin size = %d, want 12", anti.Size())
	}
	if semi.Size()+anti.Size() != dx.Size() {
		t.Error("semi + anti must partition x")
	}
}

// TestSemiJoinCombinerKeepsFirstPerPart pins the local combiner the
// semi-join runs on the sorted order (recCols.openers) against the per-part
// hash index it replaced (mpc.RowIndex.Opens). d holds keys repeated inside
// one part (5 and 3 on part 0, 7 on part 2), on adjacent parts (5 on parts
// 0 and 1, 7 on parts 1 and 2) and on parts whose records land in
// different chunks (x's twenty 5s spread key 5's run over a chunk
// boundary). The compacted rank vector must hold exactly each part's first
// row of each key, in staging order, next to all of x, in the stable
// (key, tag) order of those records; and the semi- and anti-join of d must
// equal those of the index's openers alone, part for part, with the same
// cluster snapshot, at widths 1, 2 and 8 on dirtied pools.
func TestSemiJoinCombinerKeepsFirstPerPart(t *testing.T) {
	const p = 4
	dKeys := [p][]relation.Value{{5, 5, 3, 5, 3, 8}, {5, 7, 5, 7}, {7, 7, 7, 9}, {5, 5, 9}}
	xKeys := []relation.Value{1, 3, 4, 6, 7, 8, 9}
	for range 20 {
		xKeys = append(xKeys, 5)
	}
	key, pos := []relation.Attr{1}, []int{0}
	// build returns x, d and the rows of d its per-part index opens.
	build := func(c *mpc.Cluster) (x, d, opened *mpc.Dist) {
		x = mpc.NewDist(c, relation.NewSchema(1, 2))
		d, opened = mpc.NewDist(c, relation.NewSchema(1, 3)), mpc.NewDist(c, relation.NewSchema(1, 3))
		for i, k := range xKeys {
			x.Parts[i%p].Append(relation.Tuple{k, relation.Value(i)}, int64(1+i%3))
		}
		for s, ks := range dKeys {
			for i, k := range ks {
				d.Parts[s].Append(relation.Tuple{k, relation.Value(10*s + i)}, 1)
			}
			ix := mpc.IndexRows(&d.Parts[s], pos)
			for i := range ks {
				if ix.Opens(i) {
					opened.Parts[s].Append(d.Parts[s].Tuple(i), 1)
				}
			}
			ix.Release()
		}
		return x, d, opened
	}

	// The records: the compacted vector against the stable sort of the
	// index's openers (as refs, in staging order) and all of x.
	type record struct {
		key relation.Value
		tag uint8
		ref uint64
	}
	c := mpc.NewCluster(p)
	x, d, _ := build(c)
	var want []record
	for s := range d.Parts {
		ix := mpc.IndexRows(&d.Parts[s], pos)
		for i := 0; i < d.Parts[s].Len(); i++ {
			if ix.Opens(i) {
				want = append(want, record{d.Parts[s].Tuple(i)[0], 0, uint64(s)<<32 | uint64(i)})
			}
		}
		ix.Release()
	}
	for s := range x.Parts {
		for i := 0; i < x.Parts[s].Len(); i++ {
			want = append(want, record{x.Parts[s].Tuple(i)[0], 1, uint64(s)<<32 | uint64(i)})
		}
	}
	sort.SliceStable(want, func(i, j int) bool {
		return want[i].key < want[j].key || want[i].key == want[j].key && want[i].tag < want[j].tag
	})
	rc, sc := getRecCols(x.Size()+d.Size()), getSortScratch()
	rc.appendDist(d, pos, 0)
	rc.appendDist(x, pos, 1)
	order := rc.openers(rankSort(rc, sc))
	got := make([]record, len(order))
	for j, i := range order {
		got[j] = record{rc.key(int(i))[0], rc.tags[i], rc.refs[i]}
	}
	bounds := chopBounds(c, len(order), sc)
	straddles := false
	for s := 1; s < p; s++ {
		if b := bounds[s]; b > 0 && b < len(order) && rc.keyEq(int(order[b-1]), int(order[b])) && rc.key(int(order[b]))[0] == 5 {
			straddles = true
		}
	}
	putSortScratch(sc)
	putRecCols(rc)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("the compacted rank vector is not the index's openers and x in (key, tag) order:\ngot  %v\nwant %v", got, want)
	}
	if !straddles {
		t.Fatal("key 5's run no longer straddles a chunk boundary: the case lost its boundary")
	}

	// The outputs and charges: d against the index's openers alone.
	ops := []struct {
		name string
		op   func(x *mpc.Dist, xKey []relation.Attr, d *mpc.Dist, dKey []relation.Attr) *mpc.Dist
	}{{"SemiJoin", SemiJoin}, {"AntiJoin", AntiJoin}}
	for _, b := range []int{1, 2, 8} {
		prev := runtime.SetParallelism(b)
		for _, op := range ops {
			c1, c2 := mpc.NewCluster(p), mpc.NewCluster(p)
			x1, d1, _ := build(c1)
			x2, _, opened := build(c2)
			dirtyPools(x1.Size()+d1.Size(), 1)
			have, ref := op.op(x1, key, d1, key), op.op(x2, key, opened, key)
			for s := range ref.Parts {
				if !have.Parts[s].Equal(&ref.Parts[s]) {
					t.Fatalf("width %d: %s part %d differs from the one over the index's openers", b, op.name, s)
				}
			}
			if !reflect.DeepEqual(c1.Snapshot(), c2.Snapshot()) {
				t.Fatalf("width %d: %s charged %+v, over the index's openers %+v", b, op.name, c1.Snapshot(), c2.Snapshot())
			}
		}
		runtime.SetParallelism(prev)
	}
}

func TestLookupSkewProof(t *testing.T) {
	// All x items share one key; a hash-based lookup would put the whole
	// relation on one server, the sort-based one must stay ~n/p.
	p, n := 8, 800
	c := mpc.NewCluster(p)
	x := relation.New("X", relation.NewSchema(1, 2))
	for i := 0; i < n; i++ {
		x.Add(9, relation.Value(i))
	}
	d := relation.New("D", relation.NewSchema(1))
	d.AddAnnotated(1, 9)
	dx := mpc.FromRelation(c, x)
	dd := mpc.FromRelation(c, d)
	base := c.MaxLoad()
	got := AttachAnnot(dx, []relation.Attr{1}, dd, []relation.Attr{1}, relation.CountRing, true)
	if got.Size() != n {
		t.Fatalf("lost tuples: %d", got.Size())
	}
	if c.MaxLoad() > 2*base+2*p {
		t.Errorf("skewed Lookup load %d exceeds linear bound (base %d)", c.MaxLoad(), base)
	}
}

func TestDistinctByKey(t *testing.T) {
	c, d := buildDist(8, 400, 13, 4)
	got := DistinctByKey(d, []relation.Attr{1})
	seen := map[relation.Value]bool{}
	for _, it := range got.All() {
		if seen[it.T[0]] {
			t.Fatalf("duplicate key %v after DistinctByKey", it.T[0])
		}
		seen[it.T[0]] = true
	}
	want := map[relation.Value]bool{}
	for _, it := range d.All() {
		want[it.T[0]] = true
	}
	if len(seen) != len(want) {
		t.Errorf("distinct keys %d, want %d", len(seen), len(want))
	}
	_ = c
}

func TestMultiNumbering(t *testing.T) {
	c, d := buildDist(8, 300, 7, 5)
	got := MultiNumbering(d, []relation.Attr{1}, 99)
	if got.Size() != 300 {
		t.Fatalf("size = %d", got.Size())
	}
	if !got.Schema.Equal(relation.NewSchema(1, 2, 99)) {
		t.Fatalf("schema = %v", got.Schema)
	}
	// Numbers within each key must be exactly 1..count.
	nums := map[relation.Value][]bool{}
	counts := map[relation.Value]int{}
	for _, it := range d.All() {
		counts[it.T[0]]++
	}
	for k, n := range counts {
		nums[k] = make([]bool, n+1)
	}
	for _, it := range got.All() {
		k, n := it.T[0], int(it.T[2])
		if n < 1 || n > counts[k] {
			t.Fatalf("key %v number %d out of range 1..%d", k, n, counts[k])
		}
		if nums[k][n] {
			t.Fatalf("key %v number %d assigned twice", k, n)
		}
		nums[k][n] = true
	}
	_ = c
}

func TestMultiNumberingSingleHeavyKey(t *testing.T) {
	// One key spanning every chunk exercises the boundary-offset logic.
	p, n := 8, 100
	c := mpc.NewCluster(p)
	r := relation.New("R", relation.NewSchema(1, 2))
	for i := 0; i < n; i++ {
		r.Add(4, relation.Value(i))
	}
	d := mpc.FromRelation(c, r)
	got := MultiNumbering(d, []relation.Attr{1}, 99)
	seen := make([]bool, n+1)
	for _, it := range got.All() {
		v := int(it.T[2])
		if v < 1 || v > n || seen[v] {
			t.Fatalf("bad numbering %d", v)
		}
		seen[v] = true
	}
}

func TestParallelPackingInvariants(t *testing.T) {
	const capacity = 100
	rng := rand.New(rand.NewSource(6))
	r := relation.New("U", relation.NewSchema(1))
	var total int64
	for i := 0; i < 200; i++ {
		size := int64(1 + rng.Intn(capacity))
		r.AddAnnotated(size, relation.Value(i))
		total += size
	}
	c := mpc.NewCluster(8)
	d := mpc.FromRelation(c, r)
	packed, m := ParallelPacking(d, capacity)
	if packed.Size() != 200 {
		t.Fatalf("packing lost items")
	}
	sums := map[int64]int64{}
	orig := map[relation.Value]int64{}
	for i, tu := range r.Tuples {
		orig[tu[0]] = r.Annots[i]
	}
	for _, it := range packed.All() {
		g := it.A
		if g < 0 || g >= int64(m) {
			t.Fatalf("group id %d out of range [0,%d)", g, m)
		}
		sums[g] += orig[it.T[0]]
	}
	below := 0
	for g, s := range sums {
		if s > capacity {
			t.Errorf("group %d sum %d > capacity", g, s)
		}
		if 2*s < capacity {
			below++
		}
	}
	if below > 1 {
		t.Errorf("%d groups below capacity/2, want ≤ 1", below)
	}
	if int64(m) > 1+2*total/capacity {
		t.Errorf("m = %d exceeds 1 + 2Σ/cap = %d", m, 1+2*total/capacity)
	}
}

func TestParallelPackingRejectsBadSizes(t *testing.T) {
	c := mpc.NewCluster(2)
	r := relation.New("U", relation.NewSchema(1))
	r.AddAnnotated(500, 1)
	d := mpc.FromRelation(c, r)
	defer func() {
		if recover() == nil {
			t.Fatal("oversize item did not panic")
		}
	}()
	ParallelPacking(d, 100)
}

func TestAllocateServers(t *testing.T) {
	c := mpc.NewCluster(4)
	dir := relation.New("dir", relation.NewSchema(1))
	dir.AddAnnotated(3, 10)
	dir.AddAnnotated(2, 20)
	dir.AddAnnotated(5, 30)
	d := mpc.FromRelation(c, dir)
	ranges := AllocateServers(d)
	if len(ranges) != 3 {
		t.Fatalf("ranges = %v", ranges)
	}
	total := 0
	used := map[int]bool{}
	for _, r := range ranges {
		if r.Width() < 1 {
			t.Errorf("empty range %v", r)
		}
		total += r.Width()
		for s := r.Lo; s < r.Hi; s++ {
			if used[s] {
				t.Errorf("server %d allocated twice", s)
			}
			used[s] = true
		}
	}
	if total != 10 {
		t.Errorf("total width = %d, want 10", total)
	}
	if c.Rounds() != 2 || c.TotalComm() != 3+4*3 {
		t.Errorf("directory charged %d rounds / %d tuples, want 2 / 15", c.Rounds(), c.TotalComm())
	}

	// An empty directory allocates nothing and charges nothing.
	empty := mpc.NewCluster(4)
	if ranges := AllocateServers(mpc.NewDist(empty, dir.Schema)); len(ranges) != 0 || empty.Rounds() != 0 {
		t.Errorf("empty directory: ranges %v, %d rounds", ranges, empty.Rounds())
	}
}

func TestAllocateServersDuplicatePanics(t *testing.T) {
	c := mpc.NewCluster(2)
	dir := relation.New("dir", relation.NewSchema(1))
	dir.AddAnnotated(1, 7)
	dir.AddAnnotated(1, 7)
	d := mpc.FromRelation(c, dir)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate subproblem did not panic")
		}
	}()
	AllocateServers(d)
}

func TestSortAndChopBalance(t *testing.T) {
	c := mpc.NewCluster(8)
	rc, sc := getRecCols(1000), getSortScratch()
	for i := 0; i < 1000; i++ {
		rc.append(relation.EncodeValues(relation.Value(i%3)), 0)
	}
	bounds := sortAndChop(c, rc, sc)
	for s := 0; s < c.P; s++ {
		if bounds[s+1]-bounds[s] > 125+1 {
			t.Errorf("chunk %d has %d records", s, bounds[s+1]-bounds[s])
		}
	}
	// Sortedness across chunk boundaries.
	for i := 1; i < rc.len(); i++ {
		if rc.keyLess(i, i-1) {
			t.Fatal("records not globally sorted")
		}
	}
	putSortScratch(sc)
	putRecCols(rc)
}

// TestSumByKeyMatchesAcrossWidths: the local combiner runs one task per
// part, so SumByKey's parts and charges are identical at widths 1, 2 and
// 8 — lazy and materialized annotations, the record pools dirtied and
// the index pool left holding a stale index before every run.
func TestSumByKeyMatchesAcrossWidths(t *testing.T) {
	for _, annotated := range []bool{false, true} {
		var ref *mpc.Dist
		var refStats mpc.Stats
		for _, width := range []int{1, 2, 8} {
			prev := runtime.SetParallelism(width)
			c, d := buildDist(8, 2000, 97, 5)
			if annotated {
				d = d.MapAnnots(func(a int64) int64 { return a + 2 })
			}
			dirtyPools(d.Size(), 1)
			_, noise := buildDist(1, 3000, 11, 9)
			ix := mpc.IndexRows(&noise.Parts[0], []int{1})
			ix.Release()
			got := SumByKey(d, []relation.Attr{1}, relation.CountRing, 13)
			runtime.SetParallelism(prev)
			if ref == nil {
				ref, refStats = got, c.Snapshot()
			}
			for s := range got.Parts {
				if !got.Parts[s].Equal(&ref.Parts[s]) {
					t.Fatalf("annotated=%v width %d: part %d differs from width 1's", annotated, width, s)
				}
			}
			if !reflect.DeepEqual(c.Snapshot(), refStats) {
				t.Fatalf("annotated=%v width %d: charges differ from width 1's", annotated, width)
			}
		}
	}
}

// TestSplitLookupPartitionsOneSearch: SplitLookup's two outputs are, part
// for part, the two Lookups with complementary emits, charged as one
// multi-search; and merging them back by the pick walks the single
// keep-everything Lookup row for row, in order, so heavy ∪ light is the
// input. Widths 1, 2 and 8, pools dirtied, keys missing from the
// directory included.
func TestSplitLookupPartitionsOneSearch(t *testing.T) {
	key := []relation.Attr{1}
	const tau = 12
	pick := func(r LookupResult) bool { return r.Found && r.DAnnot > tau }
	for _, width := range []int{1, 2, 8} {
		prev := runtime.SetParallelism(width)
		_, x := buildDist(8, 1500, 120, 7)
		// The directory: degrees of the keys of the first 1000 rows only,
		// so some x keys miss it.
		_, part := buildDist(8, 1000, 120, 7)
		deg := CountByKey(part, key, 3)

		dirtyPools(x.Size()+deg.Size(), 1)
		one := mpc.NewCluster(8)
		all := Lookup(mpc.FromRelation(one, x.Rel()), key, deg, key, x.Schema, func(out *mpc.Columns, it mpc.Item, _ LookupResult) {
			out.Append(it.T, it.A)
		})
		dirtyPools(x.Size()+deg.Size(), 1)
		two := mpc.NewCluster(8)
		xs := mpc.FromRelation(two, x.Rel())
		heavy := Lookup(xs, key, deg, key, x.Schema, func(out *mpc.Columns, it mpc.Item, r LookupResult) {
			if pick(r) {
				out.Append(it.T, it.A)
			}
		})
		light := Lookup(xs, key, deg, key, x.Schema, func(out *mpc.Columns, it mpc.Item, r LookupResult) {
			if !pick(r) {
				out.Append(it.T, it.A)
			}
		})
		dirtyPools(x.Size()+deg.Size(), 1)
		split := mpc.NewCluster(8)
		yes, no := SplitLookup(mpc.FromRelation(split, x.Rel()), key, deg, key, pick)
		runtime.SetParallelism(prev)

		if !reflect.DeepEqual(split.Snapshot(), one.Snapshot()) {
			t.Fatalf("width %d: SplitLookup charged %+v, one Lookup %+v", width, split.Snapshot(), one.Snapshot())
		}
		if all.Size() != x.Size() {
			t.Fatalf("width %d: the keep-everything Lookup holds %d rows of %d", width, all.Size(), x.Size())
		}
		if yes.Size() == 0 || no.Size() == 0 {
			t.Fatalf("width %d: a side is empty (%d heavy, %d light): the case splits nothing", width, yes.Size(), no.Size())
		}
		degOf := map[relation.Value]int64{}
		for _, it := range deg.All() {
			degOf[it.T[0]] = it.A
		}
		for s := range all.Parts {
			if !yes.Parts[s].Equal(&heavy.Parts[s]) || !no.Parts[s].Equal(&light.Parts[s]) {
				t.Fatalf("width %d: part %d differs from the two Lookups'", width, s)
			}
			src, y, n := &all.Parts[s], 0, 0
			for i := 0; i < src.Len(); i++ {
				d, found := degOf[src.Tuple(i)[0]]
				side, j := &no.Parts[s], &n
				if pick(LookupResult{Found: found, DAnnot: d}) {
					side, j = &yes.Parts[s], &y
				}
				if *j >= side.Len() || !reflect.DeepEqual(side.Tuple(*j), src.Tuple(i)) || side.Annot(*j) != src.Annot(i) {
					t.Fatalf("width %d: part %d row %d is not the next row of its side", width, s, i)
				}
				*j++
			}
			if y != yes.Parts[s].Len() || n != no.Parts[s].Len() {
				t.Fatalf("width %d: part %d: the sides hold rows the input does not", width, s)
			}
		}
	}
}
