package runtime

import (
	stdruntime "runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
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

// TestForkNestedUsesFreeBudget: a small fork nested in another small fork
// draws on the whole free budget, not on its own task count. At width 8,
// Fork(2) inside Fork(2) has 3 of 7 tokens to take: both outer tasks run at
// once, and each runs its two inner tasks at once, so 4 leaves overlap.
// Each leaf waits (up to a deadline) for the others to arrive, so the
// count reads the overlap the budget allows, not the scheduler's luck.
func TestForkNestedUsesFreeBudget(t *testing.T) {
	prev := SetParallelism(8)
	defer SetParallelism(prev)
	var outer, leaves, maxOuter, maxLeaves atomic.Int64
	raise := func(m *atomic.Int64, n int64) {
		for cur := m.Load(); n > cur && !m.CompareAndSwap(cur, n); cur = m.Load() {
		}
	}
	wait := func(c *atomic.Int64, n int64) {
		for deadline := time.Now().Add(5 * time.Second); c.Load() < n && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
	}
	Fork(2, func(int) {
		raise(&maxOuter, outer.Add(1))
		Fork(2, func(int) {
			raise(&maxLeaves, leaves.Add(1))
			wait(&maxLeaves, 4)
			leaves.Add(-1)
		})
		wait(&maxOuter, 2)
		outer.Add(-1)
	})
	if got := maxOuter.Load(); got != 2 {
		t.Errorf("%d outer tasks ran at once, want 2", got)
	}
	if got := maxLeaves.Load(); got != 4 {
		t.Errorf("%d nested tasks ran at once at width 8, want 4: the inner forks ran inline with most of the budget free", got)
	}
	if got := forkTokens.Load(); got != 0 {
		t.Errorf("nested forks leaked %d tokens", got)
	}
}

// TestForkAllocations: a spawning Fork allocates its one shared state and
// what its go statement costs; the inline path allocates nothing beyond
// the caller's closure.
func TestForkAllocations(t *testing.T) {
	for _, c := range []struct {
		width int
		limit float64
	}{{1, 1}, {2, 3}} {
		prev := SetParallelism(c.width)
		var sink atomic.Int64
		got := testing.AllocsPerRun(200, func() {
			Fork(4, func(i int) { sink.Add(int64(i)) })
		})
		SetParallelism(prev)
		if got > c.limit {
			t.Errorf("width %d: Fork allocates %.1f times per call, want ≤ %.0f", c.width, got, c.limit)
		}
	}
}
