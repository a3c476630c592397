// Package rng is the repository's single sanctioned constructor of random
// number generators for library code. Every solver and experiment draws
// randomness from an injected *rand.Rand; when a component must build one
// itself it does so here, from an explicit caller-visible seed, so that
// all seeding is auditable in one place and every run is bit-reproducible
// given its seed. The jcrlint global-rand analyzer enforces this: library
// packages may not call rand.New/rand.NewSource directly, nor any
// math/rand function that draws from the shared global source.
package rng

import "math/rand"

// DefaultSeed seeds components whose callers did not choose a seed (for
// example a nil AlternatingOptions.Rng). It is fixed, not time-derived:
// an unseeded run must still be reproducible.
const DefaultSeed int64 = 1

// New returns a generator seeded with the given seed.
func New(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// Derive returns a generator for an independent stream of the experiment
// identified by seed: stream offsets separate e.g. topology generation,
// demand draws, and Monte-Carlo repetitions so that changing the number of
// draws in one stage does not perturb the others.
func Derive(seed, stream int64) *rand.Rand {
	return New(seed + stream)
}
