package engine

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/stats"
)

// The catalog holds every algorithm in registration order, which is the
// Figure 1 preference order dispatch reads (see adapters.go).
var (
	regMu   sync.RWMutex
	catalog []*Spec
)

// Register appends a to the catalog. An empty or duplicate name, or one
// stats.Predict has no formula for, panics: registration is an init-time
// wiring error, not a runtime condition.
func Register(a *Spec) {
	if a.name == "" {
		panic("engine: Register with empty name")
	}
	if _, ok := stats.Predict(a.name, 0, 0, 1); !ok {
		panic(fmt.Sprintf("engine: algorithm %q has no formula in stats.Predict", a.name))
	}
	regMu.Lock()
	defer regMu.Unlock()
	for _, b := range catalog {
		if b.name == a.name {
			panic(fmt.Sprintf("engine: duplicate algorithm %q", a.name))
		}
	}
	catalog = append(catalog, a)
}

// registered returns the catalog in registration order. Entries are never
// removed or reordered, so the returned prefix stays valid without the lock.
func registered() []*Spec {
	regMu.RLock()
	defer regMu.RUnlock()
	return catalog
}

// Lookup returns the named algorithm.
func Lookup(name string) (Algorithm, bool) {
	for _, a := range registered() {
		if a.name == name {
			return a, true
		}
	}
	return nil, false
}

// All returns every registered algorithm, sorted by name.
func All() []Algorithm {
	out := append([]Algorithm(nil), registered()...)
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// Names returns the registered algorithm names, sorted.
func Names() []string {
	all := All()
	out := make([]string, len(all))
	for i, a := range all {
		out[i] = a.name
	}
	return out
}
