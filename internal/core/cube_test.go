package core

import (
	"slices"
	"testing"
)

// cubeCellsRef is appendServers by brute force: every cell of dims, in
// increasing order, whose coordinates match the fixed ones (fixed[i] < 0
// leaves dimension i free), offset by base, mod p.
func cubeCellsRef(dims []int, base, p int, fixed []int) []int {
	size := 1
	for _, d := range dims {
		size *= d
	}
	var out []int
	for cell := 0; cell < size; cell++ {
		rest, ok := cell, true
		for i := len(dims) - 1; i >= 0; i-- {
			if x := rest % dims[i]; fixed[i] >= 0 && x != fixed[i] {
				ok = false
			}
			rest /= dims[i]
		}
		if ok {
			out = append(out, (base+cell)%p)
		}
	}
	return out
}

// TestCubeAppendServers checks the cell enumerator against brute force on
// every fixed-coordinate mask and every coordinate value: the binary join's
// grids (one fixed dimension of two, 1×1 for keys heavy by their product
// alone), clamped cubes, the multiway join's cubes (one fixed of three or
// four; the empty key's one cube is such a cube), Triangle's s×s×s cube
// (two fixed of three) and Line3WorstCase's √p×√p grid (one or both
// fixed). Bases past p and cubes that wrap past the last server exercise
// the mod p.
func TestCubeAppendServers(t *testing.T) {
	cases := []struct {
		name       string
		dims       []int
		base, p    int
		clampedTo  []int // the dims newCube must clamp to; nil: unchanged
		allocCheck bool
	}{
		{name: "binary 3x5", dims: []int{3, 5}, base: 7, p: 16},
		{name: "binary 1x1", dims: []int{1, 1}, base: 21, p: 16},
		{name: "binary 1x4 wrapping", dims: []int{1, 4}, base: 14, p: 16},
		{name: "binary clamped", dims: []int{9, 4}, base: 3, p: 16, clampedTo: []int{4, 4}},
		{name: "multiway 2x3x2", dims: []int{2, 3, 2}, base: 5, p: 64},
		{name: "multiway clamped", dims: []int{5, 5, 5}, base: 40, p: 64, clampedTo: []int{4, 4, 4}},
		{name: "multiway 4 relations", dims: []int{2, 1, 3, 2}, base: 11, p: 32},
		{name: "empty key product", dims: []int{4, 3, 1}, base: 0, p: 16},
		{name: "triangle 4x4x4", dims: []int{4, 4, 4}, base: 0, p: 64, allocCheck: true},
		{name: "line3wc 4x4", dims: []int{4, 4}, base: 0, p: 16, allocCheck: true},
		{name: "one cell per server", dims: []int{1, 1, 1}, base: 0, p: 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cb := newCube(slices.Clone(tc.dims), tc.base, tc.p)
			want := tc.dims
			if tc.clampedTo != nil {
				want = tc.clampedTo
			}
			if !slices.Equal(cb.dims, want) || cb.size > tc.p {
				t.Fatalf("newCube(%v, p=%d) has dims %v and %d cells, want %v and ≤ p", tc.dims, tc.p, cb.dims, cb.size, want)
			}
			m := len(cb.dims)
			for mask := 0; mask < 1<<m; mask++ {
				// Every coordinate assignment of the fixed dimensions.
				fixedDims := []int{}
				for i := 0; i < m; i++ {
					if mask&(1<<i) != 0 {
						fixedDims = append(fixedDims, i)
					}
				}
				combos := 1
				for _, i := range fixedDims {
					combos *= cb.dims[i]
				}
				for k := 0; k < combos; k++ {
					full := make([]int, m)
					for i := range full {
						full[i] = -1
					}
					var fixed []coord
					for rest, j := k, 0; j < len(fixedDims); j++ {
						i := fixedDims[j]
						full[i] = rest % cb.dims[i]
						rest /= cb.dims[i]
						fixed = append(fixed, coord{i, full[i]})
					}
					got := cb.appendServers(nil, fixed...)
					if exp := cubeCellsRef(cb.dims, tc.base, tc.p, full); !slices.Equal(got, exp) {
						t.Fatalf("fixed %v: servers %v, want %v", full, got, exp)
					}
					// The fixed coordinates may come in any order.
					slices.Reverse(fixed)
					if again := cb.appendServers(nil, fixed...); !slices.Equal(again, got) {
						t.Fatalf("fixed %v reversed: servers %v, want %v", full, again, got)
					}
				}
			}
			if tc.allocCheck {
				dst := make([]int, 0, cb.size)
				allocs := testing.AllocsPerRun(100, func() {
					dst = cb.appendServers(dst[:0], coord{0, 1})
					dst = cb.appendServers(dst[:0], coord{0, 1}, coord{1, 2})
				})
				if allocs != 0 {
					t.Fatalf("appendServers allocated %.1f times per call pair", allocs)
				}
			}
		})
	}
}
