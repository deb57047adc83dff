// Package repobound exercises the registry contract: every registered
// algorithm declares its round class, the static class of its run body
// must respect it, and its bound must be a row of the stats bound table
// whose round class does not exceed the declaration.
package repobound

type job struct{ n int }

type dist struct{}

// Value is data-like by the element-type rule.
type Value string

type cluster struct{ rounds int }

// newRound is the fixture's grounding axiom.
//
//lint:rounds const trust fixture base charge
func (c *cluster) newRound() { c.rounds++ }

// chargeOnce is a declared charging primitive.
//
//lint:rounds const
func chargeOnce(c *cluster) { c.newRound() }

// recUndeclared cannot be classified (roundcost reports it separately).
func recUndeclared(c *cluster, n int) {
	if n == 0 {
		return
	}
	c.newRound()
	recUndeclared(c, n-1)
}

type adapter struct {
	name   string
	bound  string
	rounds string
	run    func(j job) (*dist, error)
}

var registry []*adapter

func Register(a *adapter) { registry = append(registry, a) }

// sharedRow is a bound row id held in a constant: the registry reads the
// constant's value, not its name.
const sharedRow = "Cor. 4"

func init() {
	Register(&adapter{
		name: "good", bound: "Thm 7", rounds: "const",
		run: func(j job) (*dist, error) {
			var c cluster
			chargeOnce(&c)
			return &dist{}, nil
		},
	})
	Register(&adapter{ // want "missing has no rounds declaration"
		name: "missing", bound: "Thm 7",
		run: func(j job) (*dist, error) { return &dist{}, nil },
	})
	Register(&adapter{
		name:   "invalid",
		bound:  "Thm 7",
		rounds: "banana", // want "invalid declares invalid round class \"banana\""
		run:    func(j job) (*dist, error) { return &dist{}, nil },
	})
	Register(&adapter{
		name:   "claims",
		rounds: "zero",
		bound:  "Thm 7", // want "claims's bound \"Thm 7\" claims round class const, which exceeds its declared rounds \"zero\""
		run:    func(j job) (*dist, error) { return &dist{}, nil },
	})
	Register(&adapter{
		name:   "constrow",
		rounds: "zero",
		bound:  sharedRow, // want "constrow's bound \"Cor. 4\" claims round class const, which exceeds its declared rounds \"zero\""
		run:    func(j job) (*dist, error) { return &dist{}, nil },
	})
	Register(&adapter{
		name:   "oracle",
		rounds: "zero",
		bound:  "oracle",
		run:    func(j job) (*dist, error) { return &dist{}, nil },
	})
	Register(&adapter{
		name:   "prose",
		rounds: "const",
		bound:  "one round, degree shares", // want "prose's bound \"one round, degree shares\" is not a row of the stats bound table"
		run: func(j job) (*dist, error) {
			var c cluster
			chargeOnce(&c)
			return &dist{}, nil
		},
	})
	Register(&adapter{
		name:   "exceeds",
		bound:  "oracle",
		rounds: "zero", // want "exceeds's run body reaches charges of class const, which exceeds its declared rounds \"zero\""
		run: func(j job) (*dist, error) {
			var c cluster
			chargeOnce(&c)
			return &dist{}, nil
		},
	})
	Register(&adapter{
		name:   "dataloop",
		bound:  "Thm 7",
		rounds: "const", // want "dataloop's run body reaches charges of class loop, which exceeds its declared rounds \"const\""
		run: func(j job) (*dist, error) {
			var c cluster
			vals := []Value{"a", "b"}
			for range vals {
				chargeOnce(&c)
			}
			return &dist{}, nil
		},
	})
	Register(&adapter{
		name:   "unresolved",
		bound:  "Thm 7",
		rounds: "const",
		run: func(j job) (*dist, error) { // want "unresolved's run body classifies as unknown round cost"
			var c cluster
			recUndeclared(&c, j.n)
			return &dist{}, nil
		},
	})
}
