// Package runtime is the simulator's one scheduler: Fork, a bounded
// parallel-for.
//
// Everything that runs in parallel runs on it — the harness's experiment
// cells, the exchange's plan and scatter tasks, RHier's per-heavy-group
// sub-clusters, the oracle's hash-join probe, the per-server local joins —
// and goroutines start nowhere else. All of them draw from one
// process-wide token bucket of Parallelism()−1 spawned workers: a Fork
// that finds no free token runs its tasks inline on the caller. Nested
// forks (cells that fork exchanges that fork again) are therefore
// deadlock-free, and a fork tree never has more than Parallelism() tasks
// running — its root goroutine plus the spawned workers — however deep the
// nesting.
//
// Every user of Fork writes results into per-task slots (slices indexed by
// task) and merges them in task order, so the result bytes are identical
// for every parallelism width — including 1, which runs the exact serial
// loop. SetParallelism(1) is therefore the reference execution.
package runtime

import (
	"fmt"
	stdruntime "runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// dataWidth is the configured width; 0 selects GOMAXPROCS.
var dataWidth atomic.Int64

// SetParallelism fixes the width: the maximum number of
// goroutines Fork may have in flight process-wide. n ≤ 0 restores the
// default (GOMAXPROCS). It returns the previous setting (0 = default) so
// tests can restore it.
func SetParallelism(n int) int {
	if n < 0 {
		n = 0
	}
	return int(dataWidth.Swap(int64(n)))
}

// Parallelism reports the current width.
func Parallelism() int {
	if w := dataWidth.Load(); w > 0 {
		return int(w)
	}
	return stdruntime.GOMAXPROCS(0)
}

// forkTokens counts Fork's spawned worker goroutines in flight across the
// whole process.
var forkTokens atomic.Int64

// acquireToken reserves one extra worker if the process-wide budget allows.
// The budget is width−1: the calling goroutine is always the width-th
// worker, so a width of 1 never spawns.
func acquireToken(width int) bool {
	limit := int64(width - 1)
	for {
		cur := forkTokens.Load()
		if cur >= limit {
			return false
		}
		if forkTokens.CompareAndSwap(cur, cur+1) {
			return true
		}
	}
}

// Fork runs fn(task) for every task in [0, n) and returns when all have
// finished. Tasks run on the caller plus up to Parallelism()−1 spawned
// goroutines (process-wide, shared with every other Fork in flight);
// with no token available the whole loop runs inline, byte-identical to
// the serial execution. Tasks are claimed from an atomic counter, so which
// goroutine runs which task is scheduling-dependent — callers must write
// results into per-task slots. A panicking task stops further claims and
// the first panic is re-raised on the caller once every in-flight task has
// drained, with the failing task's index and stack attached.
func Fork(n int, fn func(task int)) {
	if n <= 0 {
		return
	}
	width := Parallelism()
	if width > n {
		width = n
	}
	spawned := 0
	for spawned < width-1 && acquireToken(width) {
		spawned++
	}
	if spawned == 0 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var (
		next    atomic.Int64
		stop    atomic.Bool
		wg      sync.WaitGroup
		panicMu sync.Mutex
		panicV  any
	)
	worker := func() {
		for !stop.Load() {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			func() {
				defer func() {
					if r := recover(); r != nil {
						stop.Store(true)
						panicMu.Lock()
						if panicV == nil {
							panicV = fmt.Sprintf("runtime: forked task %d panicked: %v\n%s",
								i, r, debug.Stack())
						}
						panicMu.Unlock()
					}
				}()
				fn(i)
			}()
		}
	}
	wg.Add(spawned)
	for g := 0; g < spawned; g++ {
		go func() {
			defer wg.Done()
			defer forkTokens.Add(-1)
			worker()
		}()
	}
	worker()
	wg.Wait()
	if panicV != nil {
		panic(panicV)
	}
}
