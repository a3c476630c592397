package strategy

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"jcr/internal/rng"
	"jcr/internal/routing"
)

// Options configure a strategy built from the registry. Zero values mean
// each strategy's historical defaults, chosen so that a registry-built
// strategy reproduces the exact solver calls the pre-registry code made
// (bit-for-bit: see the experiments' pre-refactor goldens).
type Options struct {
	// Seed drives any randomized subroutine (randomized rounding, random
	// placements); zero means rng.DefaultSeed.
	Seed int64
	// Rng, when non-nil, overrides Seed with a caller-owned generator
	// whose state advances across Decide calls (the ablation experiment's
	// historical calling convention).
	Rng *rand.Rand
	// Workers bounds solver worker pools; zero means GOMAXPROCS.
	Workers int
	// Fractional selects IC-FR (fractional routing) where the strategy
	// distinguishes regimes; default is IC-IR.
	Fractional bool
	// BestEffort routes around failed links, declaring unreachable
	// demand in Plan.Unserved instead of failing the solve.
	BestEffort bool
	// MaxIters bounds a strategy's outer rounds; zero means its default.
	MaxIters int
	// RoundingTrials is how many independent randomized roundings the
	// routing layer draws under integral routing; zero means its default.
	RoundingTrials int
	// NoSolverReuse disables carrying solver state (warm LP bases,
	// routing caches) across rounds and Decide calls. Single-shot callers
	// (the experiments) set it to reproduce historical cold solves
	// byte-for-byte; the online controller leaves reuse on.
	NoSolverReuse bool
	// WarmStart seeds each Decide with the previous Decide's placement
	// (evicted down to the current capacities when caches shrank), the
	// online controller's hour-to-hour operation.
	WarmStart bool
}

// rand returns the caller's Rng, or a fresh generator from Seed (zero
// means rng.DefaultSeed), so a run is bit-reproducible either way.
func (o Options) rand() *rand.Rand {
	if o.Rng != nil {
		return o.Rng
	}
	seed := o.Seed
	if seed == 0 {
		seed = rng.DefaultSeed
	}
	return rng.New(seed)
}

// routing returns the routing-layer knobs these options carry, with r
// driving its randomized rounding.
func (o Options) routing(r *rand.Rand) routing.Options {
	return routing.Options{
		Fractional:     o.Fractional,
		BestEffort:     o.BestEffort,
		Workers:        o.Workers,
		RoundingTrials: o.RoundingTrials,
		Rng:            r,
	}
}

// registration couples a builder with its registry metadata.
type registration struct {
	doc   string
	build func(Options) Strategy
}

// registry holds the registered strategy builders by name. Mutated only
// from this package's init functions, read-only afterwards.
var registry = map[string]registration{}

// register adds a strategy builder; called from init functions, so a
// duplicate name is a programming error worth a panic.
func register(name, doc string, build func(Options) Strategy) {
	if _, dup := registry[name]; dup {
		//jcrlint:allow lib-panic: duplicate registration is a programmer error caught at init time
		panic(fmt.Sprintf("strategy: duplicate registration %q", name))
	}
	registry[name] = registration{doc: doc, build: build}
}

// Names lists the registered strategy names, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Doc returns the one-line description of a registered strategy.
func Doc(name string) string { return registry[name].doc }

// New builds a registered strategy. Unknown names report the full roster,
// so callers can surface it directly.
func New(name string, o Options) (Strategy, error) {
	reg, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("strategy: unknown strategy %q (have: %s)", name, strings.Join(Names(), ", "))
	}
	return reg.build(o), nil
}

// MustNew is New for statically known names; it panics on unknown names.
func MustNew(name string, o Options) Strategy {
	st, err := New(name, o)
	if err != nil {
		//jcrlint:allow lib-panic: MustNew is for statically known names; a miss is a programmer error
		panic(err)
	}
	return st
}
