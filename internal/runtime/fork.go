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
// The budget is width−1, width being Parallelism(), not a call's task
// count: the calling goroutine is always the width-th worker, so a width
// of 1 never spawns, and a small fork nested in another still draws on
// whatever of the budget is free.
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
//
// A Fork that spawns allocates one fork state, shared by the caller and
// its helpers, plus what the go statements cost; the inline path allocates
// nothing of its own.
func Fork(n int, fn func(task int)) {
	if n <= 0 {
		return
	}
	width := Parallelism()
	spawned := 0
	for spawned < min(width, n)-1 && acquireToken(width) {
		spawned++
	}
	if spawned == 0 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	f := &fork{n: n, fn: fn}
	f.wg.Add(spawned)
	for g := 0; g < spawned; g++ {
		go f.helper()
	}
	f.work()
	f.wg.Wait()
	if f.panicV != nil {
		panic(f.panicV)
	}
}

// fork is the state one spawning Fork shares between its caller and its
// helpers: the task counter, the stop flag, the helpers' WaitGroup and the
// first panic.
type fork struct {
	next    atomic.Int64
	stop    atomic.Bool
	wg      sync.WaitGroup
	panicMu sync.Mutex
	panicV  any
	n       int
	fn      func(task int)
}

// work claims and runs tasks until none is left or one has panicked.
func (f *fork) work() {
	for !f.stop.Load() {
		i := int(f.next.Add(1)) - 1
		if i >= f.n {
			return
		}
		f.run(i)
	}
}

// run runs task i, recording its panic (the first one wins) and stopping
// further claims.
func (f *fork) run(i int) {
	defer func() {
		if r := recover(); r != nil {
			f.stop.Store(true)
			f.panicMu.Lock()
			if f.panicV == nil {
				f.panicV = fmt.Sprintf("runtime: forked task %d panicked: %v\n%s",
					i, r, debug.Stack())
			}
			f.panicMu.Unlock()
		}
	}()
	f.fn(i)
}

// helper is one spawned worker: it works, then hands its token back.
func (f *fork) helper() {
	defer f.wg.Done()
	defer forkTokens.Add(-1)
	f.work()
}
