package strategy

import (
	"context"
	"fmt"
	"math/rand"

	"jcr/internal/placement"
	"jcr/internal/rng"
	"jcr/internal/routing"
)

func init() {
	register("cachenet-random", "CacheRateNetwork alternation: random feasible caches, optimal routing, keep the best restart",
		func(o Options) Strategy {
			return &CacheNetRandom{
				Restarts:       o.MaxIters,
				Seed:           o.Seed,
				Rng:            o.Rng,
				Workers:        o.Workers,
				BestEffort:     o.BestEffort,
				Fractional:     o.Fractional,
				RoundingTrials: o.RoundingTrials,
			}
		})
}

// CacheNetRandom is the CacheRateNetwork-style baseline (SNIPPETS.md #2,
// Random.py): alternate a *random* feasible cache configuration with an
// *optimal* routing for it, keeping the best of N restarts. Routing reuses
// this repo's Section 4.3.2 solver, so the baseline isolates exactly what
// optimized placement buys: its routing is as good as ours, its caches are
// guesses.
type CacheNetRandom struct {
	// Restarts is the number of random-cache draws; zero means 5.
	Restarts int
	// Seed seeds the placement draws and the routing's randomized
	// rounding; zero means rng.DefaultSeed.
	Seed int64
	// Rng, when non-nil, overrides Seed with a caller-owned generator
	// whose state advances across Decide calls.
	Rng *rand.Rand
	// Workers bounds the routing solver's worker pool.
	Workers int
	// BestEffort routes around failed links instead of failing.
	BestEffort bool
	// Fractional selects MMSFP routing; default MMUFP.
	Fractional bool
	// RoundingTrials is the routing layer's rounding draw count.
	RoundingTrials int
}

// Name implements Strategy.
func (c *CacheNetRandom) Name() string { return "cachenet-random" }

// Decide implements Strategy.
func (c *CacheNetRandom) Decide(ctx context.Context, inst Instance) (*Plan, Stats, error) {
	spec := inst.Spec
	r := c.Rng
	if r == nil {
		seed := c.Seed
		if seed == 0 {
			seed = rng.DefaultSeed
		}
		r = rng.New(seed)
	}
	restarts := c.Restarts
	if restarts <= 0 {
		restarts = 5
	}
	var best *Plan
	var bestMethod string
	var firstErr error
	for t := 0; t < restarts; t++ {
		if err := pollCtx(ctx, "cachenet-random restart"); err != nil {
			return nil, Stats{}, err
		}
		pl := randomFeasiblePlacement(spec, r)
		route, err := routing.Route(ctx, spec, pl, routing.Options{
			Fractional:     c.Fractional,
			BestEffort:     c.BestEffort,
			Workers:        c.Workers,
			RoundingTrials: c.RoundingTrials,
			Rng:            r,
		})
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("strategy: cachenet-random restart %d: %w", t, err)
			}
			continue
		}
		cand := &Plan{
			Placement:      pl,
			Paths:          route.Paths,
			Unserved:       route.Unserved,
			Cost:           route.Cost,
			MaxUtilization: route.MaxUtilization,
		}
		if best == nil || betterPlan(spec, cand, best) {
			best = cand
			bestMethod = route.Method
		}
	}
	if best == nil {
		return nil, Stats{}, firstErr
	}
	return best, Stats{Iterations: restarts, Method: bestMethod}, nil
}

// randomFeasiblePlacement fills every non-pinned cache with a uniformly
// shuffled prefix of the catalog, greedily while items fit (the Random.py
// cache draw, adapted to heterogeneous sizes).
func randomFeasiblePlacement(s *placement.Spec, r *rand.Rand) *placement.Placement {
	pl := s.NewPlacement()
	for v := 0; v < s.G.NumNodes(); v++ {
		if s.IsPinned(v) || s.CacheCap[v] <= 0 {
			continue
		}
		room := s.CacheCap[v]
		for _, i := range r.Perm(s.NumItems) {
			if sz := s.Size(i); sz <= room+capSlack {
				pl.Stores[v][i] = true
				room -= sz
			}
		}
	}
	return pl
}
