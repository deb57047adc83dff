package primitives

import (
	"fmt"
	"math/rand"
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

func TestTotalSum(t *testing.T) {
	c, d := buildDist(4, 100, 10, 2)
	if got := TotalSum(d, relation.CountRing); got != 100 {
		t.Errorf("TotalSum = %d, want 100", got)
	}
	if TotalCount(d) != 100 {
		t.Error("TotalCount wrong")
	}
	_ = c
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
	rc := getRecCols(1000)
	for i := 0; i < 1000; i++ {
		rc.append(relation.EncodeValues(relation.Value(i%3)), 0, nil, 1)
	}
	bounds := sortAndChop(c, rc)
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
	putRecCols(rc)
}
