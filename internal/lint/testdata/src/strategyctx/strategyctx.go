// Package strategyctx is a jcrlint golden-test fixture for the
// strategy-ctx analyzer: Decide implementations that thread their ctx
// into module solver calls versus ones that drop it by passing nil or a
// freshly minted root context.
package strategyctx

import "context"

type inst struct{ n int }

type plan struct{ cost float64 }

// solve is a module entry point with a leading ctx.
func solve(ctx context.Context, n int) plan {
	if ctx != nil && ctx.Err() != nil {
		return plan{}
	}
	return plan{cost: float64(n)}
}

// route is a ctx-less helper (Legacy calls it); relay is a second
// ctx-first module function, threaded by Good.
func route(n int) plan { return relay(nil, n) }

func relay(ctx context.Context, n int) plan { return solve(ctx, n) }

// Good threads its ctx everywhere (compliant).
type Good struct{}

func (Good) Decide(ctx context.Context, in inst) (plan, error) {
	p := solve(ctx, in.n)
	q := relay(ctx, in.n)
	if q.cost < p.cost {
		return q, nil
	}
	return p, nil
}

// NilPasser holds a live ctx but solves uncancellably (violation).
type NilPasser struct{}

func (NilPasser) Decide(ctx context.Context, in inst) (plan, error) {
	return solve(nil, in.n), nil
}

// RootMinter detaches the solve from the caller's deadline (violation).
type RootMinter struct{}

func (RootMinter) Decide(ctx context.Context, in inst) (plan, error) {
	return solve(context.Background(), in.n), nil
}

// Suppressed shows the directive escape hatch: the finding is silenced
// but needs a reason.
type Suppressed struct{}

func (Suppressed) Decide(ctx context.Context, in inst) (plan, error) {
	//jcrlint:allow strategy-ctx: warm-up probe, bounded and uncancellable by design
	return solve(nil, in.n), nil
}

// helper is not a Decide implementation: passing nil here is the repo's
// ordinary "no cancellation" convention and stays unflagged.
func helper(n int) plan { return solve(nil, n) }

// Legacy has no ctx parameter at all, so there is nothing to thread; the
// analyzer skips it.
type Legacy struct{}

func (Legacy) Decide(in inst) (plan, error) { return route(in.n), nil }
