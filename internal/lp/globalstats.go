package lp

import "sync/atomic"

// Package-wide solve counters, accumulated across every successful sparse
// solve (one-shot and Solver, warm and cold). They exist for coarse
// observability — `jcrsim -cpuprofile` runs print them next to the profile
// so a pricing-rule regression shows up as a pivot-count movement without
// reading the profile — and are all atomics, safe against concurrent
// solves from parallel workers.
var gStats struct {
	solves       atomic.Int64
	primalPivots atomic.Int64
	boundFlips   atomic.Int64
	refactors    atomic.Int64
	etaUpdates   atomic.Int64
	etaNNZ       atomic.Int64
}

// addGlobalCounters folds one successful solve into the package counters.
func addGlobalCounters(sol *Solution) {
	gStats.solves.Add(1)
	gStats.primalPivots.Add(int64(sol.PrimalPivots))
	gStats.boundFlips.Add(int64(sol.BoundFlips))
	gStats.refactors.Add(int64(sol.Refactors))
	gStats.etaUpdates.Add(int64(sol.EtaUpdates))
	gStats.etaNNZ.Add(int64(sol.EtaNNZ))
}

// GlobalCounters is a snapshot of the package-wide solve counters.
type GlobalCounters struct {
	Solves       int64 // successful sparse solves
	PrimalPivots int64
	BoundFlips   int64
	Refactors    int64
	EtaUpdates   int64
	EtaNNZ       int64
}

// AvgEtaNNZ is the average stored off-pivot nonzero count per eta update.
func (g GlobalCounters) AvgEtaNNZ() float64 {
	if g.EtaUpdates == 0 {
		return 0
	}
	return float64(g.EtaNNZ) / float64(g.EtaUpdates)
}

// GlobalStats snapshots the process-wide cumulative solve counters.
func GlobalStats() GlobalCounters {
	return GlobalCounters{
		Solves:       gStats.solves.Load(),
		PrimalPivots: gStats.primalPivots.Load(),
		BoundFlips:   gStats.boundFlips.Load(),
		Refactors:    gStats.refactors.Load(),
		EtaUpdates:   gStats.etaUpdates.Load(),
		EtaNNZ:       gStats.etaNNZ.Load(),
	}
}
