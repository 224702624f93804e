// Package xrand is the golden stand-in for the module's seeded
// generators: determinism treats its Hash*/New functions as seed/ID
// derivation sinks (and skips the package itself, which is allowed to be
// about randomness).
package xrand

// Rand is a deterministic generator seeded explicitly.
type Rand struct{ state uint64 }

// New returns a generator seeded with seed.
func New(seed uint64) *Rand { return &Rand{state: seed} }

// Uint64 steps the generator.
func (r *Rand) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	return r.state
}

// Hash64 mixes words into a derived seed.
func Hash64(words ...uint64) uint64 {
	h := uint64(14695981039346656037)
	for _, w := range words {
		h ^= w
		h *= 1099511628211
	}
	return h
}
