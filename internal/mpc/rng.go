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

// Perm returns a random permutation of [0, n).
func (r *Rng) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
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

// Hash64 mixes a byte string and a salt into 64 bits (FNV-1a core with a
// splitmix finalizer). Used for key routing; deterministic across runs.
func Hash64(key string, salt uint64) uint64 {
	h := uint64(14695981039346656037) ^ (salt * 0x9e3779b97f4a7c15)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return hashFinalize(h)
}

// HashTupleAt hashes the projection of t onto pos, producing exactly
// Hash64(relation.KeyAt(t, pos), salt) without materializing the key
// string: it feeds the same 8 big-endian bytes per value straight into the
// FNV core, with the byte loop fully unrolled (fnvValue) so the hot
// shuffles hash flat buffer rows with no per-byte loop control and no
// allocation per item.
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
// 8 big-endian bytes — the unrolled body of Hash64's byte loop, kept
// bit-identical to it (the golden tables pin the routing this produces).
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
