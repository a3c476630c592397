package serve

import (
	"context"
	"errors"
	"fmt"
	"time"

	"jcr/internal/faults"
	"jcr/internal/placement"
	"jcr/internal/strategy"
)

// PlanInput is one control-plane cycle's worth of input: the demand spec to
// optimize for and the all-pairs least-cost matrix of its graph (the same
// pairing online.HourInput carries for the decision side).
type PlanInput struct {
	Hour int
	Spec *placement.Spec
	Dist [][]float64
}

// StepOutcome classifies one control-plane cycle.
type StepOutcome int

// Step outcomes.
const (
	// StepPushed means a fresh plan was compiled, validated, and swapped in.
	StepPushed StepOutcome = iota
	// StepRejected means the push failed swap validation (for example a
	// corrupted plan); the data plane kept the last-known-good plan.
	StepRejected
	// StepSkipped means the control plane was down this cycle (a
	// faults.ControlPlaneDown window): no decision, no push.
	StepSkipped
	// StepDecideFailed means every Decide attempt failed (error, timeout,
	// or invalid output); nothing was pushed.
	StepDecideFailed
)

func (o StepOutcome) String() string {
	switch o {
	case StepPushed:
		return "pushed"
	case StepRejected:
		return "rejected"
	case StepSkipped:
		return "skipped"
	case StepDecideFailed:
		return "decide-failed"
	default:
		return fmt.Sprintf("StepOutcome(%d)", int(o))
	}
}

// StepReport records one control-plane cycle for monitoring.
type StepReport struct {
	Hour    int
	Outcome StepOutcome
	// Epoch is the epoch of the plan this cycle pushed (or tried to);
	// zero when no push was attempted.
	Epoch uint64
	// Retries counts failed Decide attempts before the applied outcome.
	Retries int
	// Err is the failure behind a StepRejected or StepDecideFailed
	// outcome, nil otherwise. A non-nil Err never aborts the loop: the
	// control plane is crash-only and the data plane keeps serving.
	Err error
}

// ControlPlaneOptions harden the recompute loop. The first five fields
// configure the decide side, which runs through strategy.Retry — the loop
// online.Run uses too; the rest are the serving-specific hooks. The zero
// value decides once per cycle with no deadline and no validation beyond
// the compiled-table self-check the data plane always runs.
type ControlPlaneOptions struct {
	// DecideTimeout bounds each Decide attempt via a derived context
	// deadline. Requires a non-nil ctx at Step/Run time; zero means no
	// deadline.
	DecideTimeout time.Duration
	// MaxRetries is how many times a failed Decide is retried before the
	// cycle is declared failed.
	MaxRetries int
	// Backoff is the wait between retry attempts, performed by Sleep.
	Backoff time.Duration
	// Sleep waits the given duration or until ctx is done, returning ctx's
	// error if it fired first. Binaries inject a timer-backed
	// implementation; nil skips the wait (what deterministic tests want).
	Sleep func(ctx context.Context, d time.Duration) error
	// Validate additionally checks every fresh decision against the
	// feasibility invariants of internal/check before compiling it.
	Validate bool
	// Now supplies the CreatedAt stamp of compiled plans, in nanoseconds.
	// Binaries inject a wall clock, tests a constant; nil stamps zero.
	Now func() int64
	// Scenario injects control-plane chaos: cycles inside a
	// faults.ControlPlaneDown window are skipped outright (the control
	// plane is "dead"), and pushes inside a faults.PushCorrupt window are
	// sabotaged with CorruptPlan before the swap — which the data plane's
	// validation must then reject. Nil means no injected faults.
	Scenario *faults.Scenario
	// CorruptSeed seeds the deterministic corruption applied in
	// PushCorrupt windows (offset by the hour so successive corrupted
	// pushes exercise different variants).
	CorruptSeed int64
}

// ControlPlane recomputes serving plans with a strategy — typically the
// warm-started alternating pipeline — and pushes full snapshots to one
// data plane. It is crash-only: a cycle either pushes a validated plan or
// changes nothing, every failure is reported rather than propagated, and
// only context cancellation stops the loop. The data plane's health never
// depends on the control plane making progress.
type ControlPlane struct {
	st    strategy.Strategy
	dp    *DataPlane
	opts  ControlPlaneOptions
	loop  strategy.Retry
	epoch uint64
}

// NewControlPlaneForStrategy wires any joint caching-and-routing strategy
// (internal/strategy — the paper's algorithms or a Section 6 baseline) to
// the data plane it pushes to.
func NewControlPlaneForStrategy(st strategy.Strategy, dp *DataPlane, opts ControlPlaneOptions) (*ControlPlane, error) {
	if st == nil || dp == nil {
		return nil, errors.New("serve: control plane needs a strategy and a data plane")
	}
	if opts.MaxRetries < 0 || opts.DecideTimeout < 0 || opts.Backoff < 0 {
		return nil, fmt.Errorf("serve: negative control-plane options: %+v", opts)
	}
	loop := strategy.Retry{
		DecideTimeout: opts.DecideTimeout,
		MaxRetries:    opts.MaxRetries,
		Backoff:       opts.Backoff,
		Sleep:         opts.Sleep,
		Validate:      opts.Validate,
	}
	return &ControlPlane{st: st, dp: dp, opts: opts, loop: loop, epoch: dp.Epoch()}, nil
}

// Step runs one recompute-and-push cycle for the given input. It never
// returns an error for a failed cycle — failures land in the report, the
// data plane keeps its last-known-good plan — except when ctx itself is
// canceled, the only fatal condition.
func (cp *ControlPlane) Step(ctx context.Context, in PlanInput) (StepReport, error) {
	rep := StepReport{Hour: in.Hour}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return rep, fmt.Errorf("serve: control plane at hour %d: %w", in.Hour, err)
		}
	}
	if cp.opts.Scenario.ControlPlaneDownAt(in.Hour) {
		rep.Outcome = StepSkipped
		return rep, nil
	}
	dec, retries, derr := cp.loop.Decide(ctx, cp.st, strategy.Instance{Spec: in.Spec, Dist: in.Dist})
	rep.Retries = retries
	if derr != nil {
		if ctx != nil && ctx.Err() != nil {
			return rep, fmt.Errorf("serve: control plane at hour %d: %w", in.Hour, ctx.Err())
		}
		rep.Outcome = StepDecideFailed
		rep.Err = derr
		return rep, nil
	}
	var createdAt int64
	if cp.opts.Now != nil {
		createdAt = cp.opts.Now()
	}
	plan, cerr := Compile(in.Spec, dec.Placement, dec.Paths, cp.epoch+1, createdAt)
	if cerr != nil {
		rep.Outcome = StepDecideFailed
		rep.Err = cerr
		return rep, nil
	}
	cp.epoch++
	rep.Epoch = plan.Epoch
	if cp.opts.Scenario.CorruptPushAt(in.Hour) {
		plan = CorruptPlan(plan, cp.opts.CorruptSeed+int64(in.Hour))
	}
	if ierr := cp.dp.Install(plan); ierr != nil {
		rep.Outcome = StepRejected
		rep.Err = ierr
		return rep, nil
	}
	rep.Outcome = StepPushed
	return rep, nil
}

// Run walks the inputs, one Step per cycle, collecting reports. Only
// context cancellation aborts the loop; the partial reports up to that
// point are returned alongside the error.
func (cp *ControlPlane) Run(ctx context.Context, inputs []PlanInput) ([]StepReport, error) {
	reports := make([]StepReport, 0, len(inputs))
	for _, in := range inputs {
		rep, err := cp.Step(ctx, in)
		if err != nil {
			return reports, err
		}
		reports = append(reports, rep)
	}
	return reports, nil
}
