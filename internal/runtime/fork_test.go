package runtime

import (
	stdruntime "runtime"
	"strings"
	"sync/atomic"
	"testing"
)

func TestForkRunsEveryTaskOnce(t *testing.T) {
	for _, width := range []int{1, 2, 8} {
		prev := SetParallelism(width)
		for _, n := range []int{0, 1, 7, 1000} {
			counts := make([]atomic.Int32, n)
			Fork(n, func(i int) { counts[i].Add(1) })
			for i := range counts {
				if got := counts[i].Load(); got != 1 {
					t.Fatalf("width %d: task %d ran %d times", width, i, got)
				}
			}
		}
		SetParallelism(prev)
	}
}

// TestForkSerialWidthIsInline: width 1 must run tasks in index order on
// the calling goroutine — the reference execution the determinism tests
// compare against.
func TestForkSerialWidthIsInline(t *testing.T) {
	prev := SetParallelism(1)
	defer SetParallelism(prev)
	var order []int
	Fork(50, func(i int) { order = append(order, i) }) // safe: inline only
	for i, v := range order {
		if i != v {
			t.Fatalf("serial order[%d] = %d", i, v)
		}
	}
}

func TestForkPanicPropagates(t *testing.T) {
	for _, width := range []int{1, 4} {
		prev := SetParallelism(width)
		func() {
			defer SetParallelism(prev)
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("width %d: panic did not propagate", width)
				}
				msg, ok := r.(string)
				if width > 1 && (!ok || !strings.Contains(msg, "panicked: boom")) {
					t.Fatalf("width %d: panic %v lost the cause", width, r)
				}
			}()
			Fork(64, func(i int) {
				if i == 13 {
					panic("boom")
				}
			})
		}()
	}
}

// TestForkReleasesTokens: the process-wide budget must be whole again
// after every Fork, or nesting would degenerate to serial forever.
func TestForkReleasesTokens(t *testing.T) {
	prev := SetParallelism(4)
	defer SetParallelism(prev)
	for round := 0; round < 50; round++ {
		Fork(16, func(int) {})
		if got := forkTokens.Load(); got != 0 {
			t.Fatalf("round %d: %d tokens leaked", round, got)
		}
	}
}

// TestForkNestedStaysWithinWidth: the width bound is exact. Three levels
// of nested Fork do not deadlock on an exhausted bucket, never have more
// than Parallelism() tasks running at once — the root goroutine plus at
// most width−1 spawned workers — and leave the bucket whole.
func TestForkNestedStaysWithinWidth(t *testing.T) {
	const width = 4
	prev := SetParallelism(width)
	defer SetParallelism(prev)
	// Only leaves count themselves: a goroutine inside an outer task is the
	// one running the inner Fork's tasks, not a second runner.
	var running atomic.Int64
	leaf := func(int) {
		if n := running.Add(1); n > width {
			t.Errorf("%d tasks running at width %d", n, width)
		}
		for spin := 0; spin < 1000; spin++ {
			stdruntime.Gosched()
		}
		running.Add(-1)
	}
	Fork(6, func(int) {
		Fork(5, func(int) {
			Fork(3, leaf)
		})
	})
	if got := forkTokens.Load(); got != 0 {
		t.Errorf("nested forks leaked %d tokens", got)
	}
}
