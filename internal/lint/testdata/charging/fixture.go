// Package fixture exercises the repocharging analyzer: exported
// communicating primitives must charge on every return path (rule 1), and
// explicit charges must not hide behind non-emptiness guards (rule 2).
package fixture

// cluster and dist stub mpc.Cluster and mpc.Dist; the analyzer matches the
// communicating entry points by name.
type cluster struct{}

func (c *cluster) Charge(s, n int)           {}
func (c *cluster) ChargeRound(loads []int64) {}
func (c *cluster) ChargeSpread(total int)    {}

type dist struct{ c *cluster }

func (d *dist) ShuffleByKey() {}
func (d *dist) Size() int     { return 0 }

// UnchargedEarlyOut returns without communicating on a path that is NOT an
// emptiness guard: callers with more than three parts get a free exchange.
func UnchargedEarlyOut(d *dist, parts int) int {
	if parts > 3 {
		return 0 // want `UnchargedEarlyOut communicates but returns without charging`
	}
	d.ShuffleByKey()
	return 1
}

// GuardedCharge deletes a round exactly when the input is empty, so the
// round count depends on the data instead of the query structure.
func GuardedCharge(c *cluster, n int) {
	if n > 0 {
		c.ChargeRound(nil) // want `ChargeRound is skipped when the input is empty`
	}
}

// GuardedSpread is GuardedCharge through the spread charge: an empty input
// loses its statistics round.
func GuardedSpread(c *cluster, n int) {
	if n > 0 {
		c.ChargeSpread(n) // want `ChargeSpread is skipped when the input is empty`
	}
}

// EmptyEarlyOut is the blessed shape: a statically-empty input has no
// communication to charge, and every non-empty path shuffles.
func EmptyEarlyOut(d *dist) int {
	if d.Size() == 0 {
		return 0
	}
	d.ShuffleByKey()
	return 1
}

// UnconditionalCharge charges before any branching, so every return path
// is covered.
func UnconditionalCharge(d *dist, c *cluster, parts int) int {
	c.ChargeRound(nil)
	if parts > 3 {
		return 0
	}
	d.ShuffleByKey()
	return 1
}

// silent never communicates, so rule 1 does not apply to it at all.
func silent(xs []int) int {
	if len(xs) > 10 {
		return 0
	}
	return len(xs)
}
