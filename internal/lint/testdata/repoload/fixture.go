// Package repoload exercises the load half of the registry contract:
// every registered algorithm declares its load class, the static load
// class of its run body must respect it, and its bound must be a row of
// the stats bound table whose formula claims no higher class than the
// declaration carries.
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

// sharedRow is a bound row id held in a constant: the registry reads the
// constant's value, not its name.
const sharedRow = "[19,24]"

func init() {
	Register(&adapter{
		name: "good", bound: "Cor. 4", load: "perP",
		run: func(j job) (*dist, error) {
			var c cluster
			chargePerP(&c, data)
			return &dist{}, nil
		},
	})
	Register(&adapter{ // want "missing has no load declaration"
		name: "missing", bound: "Cor. 4",
		run: func(j job) (*dist, error) { return &dist{}, nil },
	})
	Register(&adapter{
		name:  "invalid",
		bound: "Cor. 4",
		load:  "zero", // want "invalid declares invalid load class \"zero\" \\(want perP, frac, or linear\\)"
		run:   func(j job) (*dist, error) { return &dist{}, nil },
	})
	Register(&adapter{
		name:  "claims",
		load:  "perP",
		bound: "Thm 7", // want "claims's bound \"Thm 7\" claims load class frac, which exceeds its declared load \"perP\""
		run: func(j job) (*dist, error) {
			var c cluster
			chargePerP(&c, data)
			return &dist{}, nil
		},
	})
	Register(&adapter{
		name:  "constrow",
		load:  "perP",
		bound: sharedRow, // want "constrow's bound \"\\[19,24\\]\" claims load class frac, which exceeds its declared load \"perP\""
		run: func(j job) (*dist, error) {
			var c cluster
			chargePerP(&c, data)
			return &dist{}, nil
		},
	})
	Register(&adapter{
		name:  "prose",
		load:  "frac",
		bound: "IN/√p shares", // want "prose's bound \"IN/√p shares\" is not a row of the stats bound table"
		run: func(j job) (*dist, error) {
			var c cluster
			chargePerP(&c, data)
			return &dist{}, nil
		},
	})
	Register(&adapter{ // want "nobound's bound \"\" is not a row of the stats bound table"
		name: "nobound",
		load: "perP",
		run: func(j job) (*dist, error) {
			var c cluster
			chargePerP(&c, data)
			return &dist{}, nil
		},
	})
	Register(&adapter{
		name:  "exceeds",
		bound: "Cor. 4",
		load:  "perP", // want "exceeds's run body reaches charges of load class linear, which exceeds its declared load \"perP\""
		run: func(j job) (*dist, error) {
			var c cluster
			chargeAll(&c, data)
			return &dist{}, nil
		},
	})
	Register(&adapter{ // want "norun has no run function to classify"
		name: "norun", bound: "Cor. 4", load: "perP",
	})
	Register(&adapter{
		name:  "unresolved",
		bound: "Cor. 4",
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
		name: "suppressed", bound: "Cor. 4",
		run: func(j job) (*dist, error) { return &dist{}, nil },
	})
}

// Clean carries a stale directive: nothing here ever flags.
//
//lint:ignore repoload stale excuse // want "lint:ignore repoload suppresses no diagnostic; remove the stale directive"
func Clean() {}
