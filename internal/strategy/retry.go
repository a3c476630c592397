package strategy

import (
	"context"
	"errors"
	"fmt"
	"time"

	"jcr/internal/check"
)

// Retry is the hardened decide loop shared by the online controller and
// the serving control plane: each Decide attempt runs under its own
// deadline, a failed attempt is retried with a backoff between attempts,
// and the surviving plan is optionally checked against the feasibility
// invariants. The zero value decides once, with no deadline and no
// validation.
type Retry struct {
	// DecideTimeout bounds each attempt via a derived context deadline;
	// zero means no deadline. An attempt with a deadline and a nil ctx
	// fails.
	DecideTimeout time.Duration
	// MaxRetries is how many times a failed attempt is retried.
	MaxRetries int
	// Backoff is the wait between attempts, performed by Sleep.
	Backoff time.Duration
	// Sleep waits the given duration or until ctx is done, returning
	// ctx's error if it fired first. Binaries inject a timer-backed
	// implementation (library code never owns a timer); nil skips the
	// wait, which is also what deterministic tests want.
	Sleep func(ctx context.Context, d time.Duration) error
	// Validate checks the plan the attempts produced against cache
	// capacities (Eq. 1f) and serving integrity with declared-unserved
	// accounting (Eq. 1b-1c; congestion is permitted, as in the paper's
	// evaluation). An invalid plan fails the decision without a retry.
	Validate bool
}

// Decide runs st on inst up to 1+MaxRetries times and returns the plan,
// the number of failed attempts before the returned outcome, and the
// failure. A nil plan or placement counts as a failed attempt. Retrying
// stops early when Sleep fails or ctx itself is done; the last attempt's
// error is returned either way.
func (r Retry) Decide(ctx context.Context, st Strategy, inst Instance) (*Plan, int, error) {
	var lastErr error
	for attempt := 0; ; attempt++ {
		if attempt > 0 && r.Backoff > 0 && r.Sleep != nil {
			if err := r.Sleep(ctx, r.Backoff); err != nil {
				return nil, attempt, lastErr
			}
		}
		plan, err := r.attempt(ctx, st, inst)
		if err == nil {
			if r.Validate {
				if verr := check.PartialFlow(inst.Spec, plan.Placement, plan.Paths, plan.Unserved, true); verr != nil {
					return nil, attempt, fmt.Errorf("invalid decision: %w", verr)
				}
			}
			return plan, attempt, nil
		}
		lastErr = err
		if ctx != nil && ctx.Err() != nil {
			// The caller's own deadline (not just this attempt's) is
			// gone; retrying cannot succeed.
			return nil, attempt, lastErr
		}
		if attempt >= r.MaxRetries {
			return nil, attempt, lastErr
		}
	}
}

// attempt is one Decide under its own deadline.
func (r Retry) attempt(ctx context.Context, st Strategy, inst Instance) (*Plan, error) {
	if r.DecideTimeout > 0 {
		if ctx == nil {
			return nil, errors.New("DecideTimeout requires a non-nil context")
		}
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, r.DecideTimeout)
		defer cancel()
	}
	plan, _, err := st.Decide(ctx, inst)
	if err != nil {
		return nil, err
	}
	if plan == nil || plan.Placement == nil {
		return nil, errors.New("strategy returned no plan")
	}
	return plan, nil
}
