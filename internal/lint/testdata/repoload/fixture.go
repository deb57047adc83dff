// Package repoload exercises the load half of the registry contract:
// every registered algorithm declares its load class, the static load
// class of its run body must respect it, and bound strings must not claim
// a stronger class in prose than the declaration carries.
package repoload

type job struct{ n int }

type dist struct{}

// Value is data-like by the element-type rule.
type Value string

type cluster struct {
	P    int
	load int
}

// Charge is the grounding intrinsic.
func (c *cluster) Charge(s, n int) { c.load += n }

// chargePerP charges one balanced share.
//
//lint:load perP
func chargePerP(c *cluster, vals []Value) { c.Charge(0, len(vals)/c.P) }

// chargeAll ships the whole input to one server.
//
//lint:load linear
func chargeAll(c *cluster, vals []Value) { c.Charge(0, len(vals)) }

// recUndeclared cannot be classified (repoloadcost reports it separately).
func recUndeclared(c *cluster, vals []Value) {
	if len(vals) == 0 {
		return
	}
	c.Charge(0, len(vals))
	recUndeclared(c, vals[1:])
}

type adapter struct {
	name  string
	bound string
	load  string
	run   func(j job) (*dist, error)
}

var registry []*adapter

func Register(a *adapter) { registry = append(registry, a) }

var data = []Value{"a", "b"}

// sharedFormula is a bound spelled once and referenced from a
// registration: the registry reads the constant's value, not its name.
const sharedFormula = "IN/√p (shared)"

func init() {
	Register(&adapter{
		name: "good", bound: "IN/p", load: "perP",
		run: func(j job) (*dist, error) {
			var c cluster
			chargePerP(&c, data)
			return &dist{}, nil
		},
	})
	Register(&adapter{ // want "missing has no load declaration"
		name: "missing", bound: "IN/p",
		run: func(j job) (*dist, error) { return &dist{}, nil },
	})
	Register(&adapter{
		name:  "invalid",
		bound: "IN/p",
		load:  "zero", // want "invalid declares invalid load class \"zero\" \\(want perP, frac, or linear\\)"
		run:   func(j job) (*dist, error) { return &dist{}, nil },
	})
	Register(&adapter{
		name:  "prose",
		load:  "perP",
		bound: "IN/√p shares", // want "prose's bound string .* claims load class frac in prose, stronger than its declared load \"perP\""
		run: func(j job) (*dist, error) {
			var c cluster
			chargePerP(&c, data)
			return &dist{}, nil
		},
	})
	Register(&adapter{
		name:  "constprose",
		load:  "perP",
		bound: sharedFormula, // want "constprose's bound string \"IN/√p \\(shared\\)\" claims load class frac in prose, stronger than its declared load \"perP\""
		run: func(j job) (*dist, error) {
			var c cluster
			chargePerP(&c, data)
			return &dist{}, nil
		},
	})
	Register(&adapter{
		name:  "exceeds",
		bound: "IN/p",
		load:  "perP", // want "exceeds's run body reaches charges of load class linear, which exceeds its declared load \"perP\""
		run: func(j job) (*dist, error) {
			var c cluster
			chargeAll(&c, data)
			return &dist{}, nil
		},
	})
	Register(&adapter{ // want "norun has no run function to classify"
		name: "norun", bound: "IN/p", load: "perP",
	})
	Register(&adapter{
		name:  "unresolved",
		bound: "IN/p",
		load:  "perP",
		run: func(j job) (*dist, error) { // want "unresolved's run body classifies as unknown load"
			var c cluster
			recUndeclared(&c, data)
			return &dist{}, nil
		},
	})
	// The vetted-exception path: the directive covers the missing-load
	// diagnostic, and by being used it escapes the stale-directive report.
	//
	//lint:ignore repoload fixture exercises the suppression path
	Register(&adapter{
		name: "suppressed", bound: "IN/p",
		run: func(j job) (*dist, error) { return &dist{}, nil },
	})
}

// Clean carries a stale directive: nothing here ever flags.
//
//lint:ignore repoload stale excuse // want "lint:ignore repoload suppresses no diagnostic; remove the stale directive"
func Clean() {}
