package mpc

import "repro/internal/relation"

// Rng is a splitmix64 pseudo-random generator: tiny, fast, and with
// explicit state so every simulation is reproducible from its seed.
type Rng struct{ state uint64 }

// NewRng returns a generator seeded with seed.
func NewRng(seed uint64) *Rng { return &Rng{state: seed} }

// Next returns the next 64 random bits.
func (r *Rng) Next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform int in [0, n). n must be positive.
func (r *Rng) Intn(n int) int {
	if n <= 0 {
		panic("mpc: Intn with non-positive n")
	}
	return int(r.Next() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Rng) Float64() float64 {
	return float64(r.Next()>>11) / (1 << 53)
}

// ChildSeed derives an independent stream seed for a task from a root seed.
// Child streams depend only on (seed, task) — never on shared RNG state —
// so a task produces the same instance whether the experiment matrix runs
// on one worker or many, and in any order.
func ChildSeed(seed uint64, task int) uint64 {
	z := seed ^ (uint64(task)+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// NewChildRng returns a generator on task's independent stream of seed.
func NewChildRng(seed uint64, task int) *Rng {
	return NewRng(ChildSeed(seed, task))
}

// HashTupleAt hashes the projection of t onto pos for key routing: an
// FNV-1a core with a splitmix finalizer, deterministic across runs. It
// equals the byte-string hash of relation.KeyAt(t, pos) (the tests'
// reference, Hash64) without materializing the key string: it feeds the
// same 8 big-endian bytes per value straight into the FNV core, with the
// byte loop fully unrolled (fnvValue) so the hot shuffles hash flat buffer
// rows with no per-byte loop control and no allocation per item.
//
//lint:alloc-ceiling
func HashTupleAt(t relation.Tuple, pos []int, salt uint64) uint64 {
	h := uint64(14695981039346656037) ^ (salt * 0x9e3779b97f4a7c15)
	for _, p := range pos {
		h = fnvValue(h, uint64(t[p])^(1<<63))
	}
	return hashFinalize(h)
}

// HashTupleAtWith is HashTupleAt(t ++ [u, v], pos ++ [len(t), len(t)+1],
// salt) without widening the row: the same fold, continued over u and v.
//
//lint:alloc-ceiling
func HashTupleAtWith(t relation.Tuple, pos []int, salt uint64, u, v relation.Value) uint64 {
	h := uint64(14695981039346656037) ^ (salt * 0x9e3779b97f4a7c15)
	for _, p := range pos {
		h = fnvValue(h, uint64(t[p])^(1<<63))
	}
	h = fnvValue(h, uint64(u)^(1<<63))
	return hashFinalize(fnvValue(h, uint64(v)^(1<<63)))
}

// fnvValue folds one order-encoded value into the running FNV-1a state as
// 8 big-endian bytes — the unrolled body of the FNV byte loop, kept
// bit-identical to the tests' reference Hash64 (the golden tables pin the
// routing this produces).
func fnvValue(h, v uint64) uint64 {
	const prime = 1099511628211
	h ^= v >> 56
	h *= prime
	h ^= (v >> 48) & 0xff
	h *= prime
	h ^= (v >> 40) & 0xff
	h *= prime
	h ^= (v >> 32) & 0xff
	h *= prime
	h ^= (v >> 24) & 0xff
	h *= prime
	h ^= (v >> 16) & 0xff
	h *= prime
	h ^= (v >> 8) & 0xff
	h *= prime
	h ^= v & 0xff
	h *= prime
	return h
}

func hashFinalize(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	return h ^ (h >> 31)
}
