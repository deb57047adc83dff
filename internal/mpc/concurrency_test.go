package mpc

import (
	"sync"
	"testing"
)

// TestShardedRoundConcurrentReceives drives the sharded counters the way a
// parallel inner loop would: several workers record receives into the same
// open round through their own shards, and after the barrier the merged
// totals equal the serial sum. Run with -race this is the data-race proof.
func TestShardedRoundConcurrentReceives(t *testing.T) {
	const p, workers, perWorker = 8, 4, 1000
	c := NewCluster(p)
	r := c.newRound()
	if r != 1 {
		t.Fatalf("first round index = %d, want 1", r)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		sh := c.Shard()
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				sh.Receive((w+i)%p, 1)
			}
		}(w)
	}
	wg.Wait()
	if got, want := c.RoundMax(1), workers*perWorker/p; got != want {
		t.Errorf("RoundMax(1) = %d, want %d", got, want)
	}
	if got, want := c.TotalComm(), workers*perWorker; got != want {
		t.Errorf("TotalComm = %d, want %d", got, want)
	}
}

// TestShardMergeAtRoundBoundary checks that shard counts recorded in one
// round never leak into the next: newRound is a barrier.
func TestShardMergeAtRoundBoundary(t *testing.T) {
	c := NewCluster(4)
	sh := c.Shard()
	c.newRound()
	sh.Receive(2, 5)
	c.newRound() // barrier folds the 5 into round 1
	sh.Receive(3, 7)
	if got := c.RoundMax(1); got != 5 {
		t.Errorf("round 1 max = %d, want 5", got)
	}
	if got := c.RoundMax(2); got != 7 {
		t.Errorf("round 2 max = %d, want 7", got)
	}
	if got := c.MaxLoad(); got != 7 {
		t.Errorf("MaxLoad = %d, want 7", got)
	}
}

// TestSerialPathUnchanged re-checks the coordinator-only API against the
// pre-sharding semantics: reads interleaved with receives stay consistent.
func TestSerialPathUnchanged(t *testing.T) {
	c := NewCluster(3)
	c.input(0, 4)
	if c.MaxLoad() != 4 {
		t.Fatalf("MaxLoad after input = %d", c.MaxLoad())
	}
	c.input(0, 2) // round 0 is still open: input keeps accumulating
	r := c.newRound()
	c.receive(r, 1, 9)
	if c.RoundMax(0) != 6 || c.RoundMax(1) != 9 || c.Rounds() != 1 {
		t.Errorf("round maxima = %d,%d rounds=%d", c.RoundMax(0), c.RoundMax(1), c.Rounds())
	}
}

func TestChildSeedIndependentStreams(t *testing.T) {
	seen := map[uint64]int{}
	for task := 0; task < 1000; task++ {
		s := ChildSeed(2019, task)
		if prev, dup := seen[s]; dup {
			t.Fatalf("tasks %d and %d share child seed %#x", prev, task, s)
		}
		seen[s] = task
	}
	if ChildSeed(1, 0) == ChildSeed(2, 0) {
		t.Error("different root seeds produced the same child seed")
	}
	a, b := NewChildRng(2019, 7), NewChildRng(2019, 7)
	if a.Next() != b.Next() {
		t.Error("child stream not deterministic")
	}
}
