package mpc

import "testing"

// TestSerialPathUnchanged checks the coordinator's ledger API: reads
// interleaved with receives stay consistent.
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
