// Package repobound exercises the registry contract: every registered
// algorithm declares its round class, the static class of its run body
// must respect it, and bound strings must not claim rounds in prose.
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

// sharedFormula is a bound spelled once and referenced from a
// registration: the registry reads the constant's value, not its name.
const sharedFormula = "IN/p in one round"

func init() {
	Register(&adapter{
		name: "good", bound: "IN/p", rounds: "const",
		run: func(j job) (*dist, error) {
			var c cluster
			chargeOnce(&c)
			return &dist{}, nil
		},
	})
	Register(&adapter{ // want "missing has no rounds declaration"
		name: "missing", bound: "IN/p",
		run: func(j job) (*dist, error) { return &dist{}, nil },
	})
	Register(&adapter{
		name:   "invalid",
		bound:  "IN/p",
		rounds: "banana", // want "invalid declares invalid round class \"banana\""
		run:    func(j job) (*dist, error) { return &dist{}, nil },
	})
	Register(&adapter{
		name:   "prose",
		rounds: "const",
		bound:  "one round, degree shares", // want "prose's bound string .* claims round behavior in prose"
		run: func(j job) (*dist, error) {
			var c cluster
			chargeOnce(&c)
			return &dist{}, nil
		},
	})
	Register(&adapter{
		name:   "constprose",
		rounds: "const",
		bound:  sharedFormula, // want "constprose's bound string \"IN/p in one round\" claims round behavior in prose"
		run: func(j job) (*dist, error) {
			var c cluster
			chargeOnce(&c)
			return &dist{}, nil
		},
	})
	Register(&adapter{
		name:   "exceeds",
		bound:  "IN/p",
		rounds: "zero", // want "exceeds's run body reaches charges of class const, which exceeds its declared rounds \"zero\""
		run: func(j job) (*dist, error) {
			var c cluster
			chargeOnce(&c)
			return &dist{}, nil
		},
	})
	Register(&adapter{
		name:   "dataloop",
		bound:  "IN/p",
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
		bound:  "IN/p",
		rounds: "const",
		run: func(j job) (*dist, error) { // want "unresolved's run body classifies as unknown round cost"
			var c cluster
			recUndeclared(&c, j.n)
			return &dist{}, nil
		},
	})
}
