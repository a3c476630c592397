package lp_test

import (
	"context"
	"testing"

	"jcr/internal/experiments"
	"jcr/internal/lp"
	"jcr/internal/placement"
	"jcr/internal/routing"
	"jcr/internal/strategy"
)

// solveLog records the problems handed to Solve under an observing context,
// grouped per Solver handle in order (one-shot solves each on their own),
// deep-copied so later in-place edits cannot reach them.
type solveLog struct {
	seqs  [][]*lp.Problem
	index map[*lp.Solver]int
}

func (l *solveLog) observe(s *lp.Solver, p *lp.Problem) {
	if s == nil {
		l.seqs = append(l.seqs, []*lp.Problem{p.Clone()})
		return
	}
	if l.index == nil {
		l.index = map[*lp.Solver]int{}
	}
	k, ok := l.index[s]
	if !ok {
		k = len(l.seqs)
		l.index[s] = k
		l.seqs = append(l.seqs, nil)
	}
	l.seqs[k] = append(l.seqs[k], p.Clone())
}

// check replays every recorded sequence through the pivot-trace oracle.
func (l *solveLog) check(t *testing.T, what string) lp.PivotTraceStats {
	t.Helper()
	var sum lp.PivotTraceStats
	for k, seq := range l.seqs {
		st, err := lp.CheckPivotTraces(seq)
		if err != nil {
			t.Fatalf("%s, sequence %d (%d problems, first %d vars x %d rows): %v",
				what, k, len(seq), seq[0].NumVars(), seq[0].NumConstraints(), err)
		}
		sum.Solves += st.Solves
		sum.Warm += st.Warm
		sum.Pivots += st.Pivots
	}
	return sum
}

// TestPivotTraceAbovenet runs the pivot-trace oracle on LPs the library
// builds on the default Abovenet scenario, captured as they are solved:
// Algorithm 1's auxiliary LP at three cache sizes, the per-path LPs of the
// warm-started alternating optimizer over four trace hours and four
// rate-scaled copies of one hour (which keep the skeleton, so they solve
// warm), and the exact multicommodity routing LP of a file-level
// alternating plan. Production and reference kernels must pivot alike and
// return the same bits on every one of them.
func TestPivotTraceAbovenet(t *testing.T) {
	sc := experiments.NewScenario(experiments.DefaultConfig(), nil)

	var alg1 solveLog
	ctx := lp.ObserveSolves(context.Background(), alg1.observe)
	for _, zeta := range []float64{4, 12, 20} {
		run, err := sc.MakeRun(experiments.RunParams{CapacityFrac: -1, CacheSlots: zeta, Mode: experiments.TrueDemand, Hour: 40})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := placement.Alg1(ctx, run.Decision, run.Dist, placement.Alg1Options{}); err != nil {
			t.Fatal(err)
		}
	}
	if len(alg1.seqs) != 3 {
		t.Fatalf("captured %d Alg. 1 LPs, want 3", len(alg1.seqs))
	}
	st := alg1.check(t, "Alg. 1")
	t.Logf("Alg. 1 at zeta 4, 12, 20: %+v", st)

	var alt solveLog
	ctx = lp.ObserveSolves(context.Background(), alt.observe)
	planner := strategy.MustNew("alternating", strategy.Options{Seed: 1, WarmStart: true, BestEffort: true})
	var last *strategy.Plan
	for h := 0; h < 4; h++ {
		run, err := sc.MakeRun(experiments.RunParams{Hour: 40 + h})
		if err != nil {
			t.Fatal(err)
		}
		plan, _, err := planner.Decide(ctx, strategy.Instance{Spec: run.Decision, Dist: run.Dist, Initial: placementOf(last)})
		if err != nil {
			t.Fatal(err)
		}
		last = plan
	}
	// The trace hours change the per-path LP's skeleton; a demand drift
	// that scales one hour's rates under unlimited link capacities keeps
	// the serving paths, and so the skeleton, and those solves warm-start.
	run, err := sc.MakeRun(experiments.RunParams{CapacityFrac: -1, Hour: 40})
	if err != nil {
		t.Fatal(err)
	}
	last = nil
	for h := 0; h < 4; h++ {
		spec := *run.Decision
		spec.Rates = make([][]float64, len(run.Decision.Rates))
		for i, row := range run.Decision.Rates {
			spec.Rates[i] = make([]float64, len(row))
			for v, x := range row {
				spec.Rates[i][v] = x * (1 + 0.1*float64(h))
			}
		}
		plan, _, err := planner.Decide(ctx, strategy.Instance{Spec: &spec, Dist: run.Dist, Initial: placementOf(last)})
		if err != nil {
			t.Fatal(err)
		}
		last = plan
	}
	st = alt.check(t, "alternating")
	t.Logf("per-path LPs of 8 alternating hours: %d sequences, %+v", len(alt.seqs), st)
	if st.Warm == 0 {
		t.Errorf("no warm-started per-path LP in %d solves", st.Solves)
	}

	fileRun, err := sc.MakeRun(experiments.RunParams{FileLevel: true, Hour: 40})
	if err != nil {
		t.Fatal(err)
	}
	filePlan, _, err := planner.Decide(context.Background(), strategy.Instance{Spec: fileRun.Decision, Dist: fileRun.Dist})
	if err != nil {
		t.Fatal(err)
	}
	var mc solveLog
	ctx = lp.ObserveSolves(context.Background(), mc.observe)
	if _, err := routing.SolveMMSFPExact(ctx, fileRun.Decision, filePlan.Placement); err != nil {
		t.Logf("MC LP: %v", err)
	}
	if len(mc.seqs) != 1 {
		t.Fatalf("captured %d multicommodity LPs, want 1", len(mc.seqs))
	}
	st = mc.check(t, "multicommodity")
	t.Logf("MC LP: %+v", st)
}

func placementOf(p *strategy.Plan) *placement.Placement {
	if p == nil {
		return nil
	}
	return p.Placement
}

// TestFig7FileLevelMCLPsSolve pins a scale defect of the phase-1 verdict.
// Fig. 7's file-level point at cache capacity 2 (hour 10, true demand,
// first Monte-Carlo spread) routes through multicommodity LPs whose
// right-hand sides reach 1.9e8 (rates in bits); roundoff then leaves an
// artificial sum near 1e-7 on a feasible instance, which an absolute
// 1e-7 threshold declared infeasible and the routing ladder silently
// replaced with its sequential heuristic. Every such LP the alternating
// optimizer solves at that point must solve, agreeing with the dense
// tableau oracle.
func TestFig7FileLevelMCLPsSolve(t *testing.T) {
	sc := experiments.NewScenario(experiments.DefaultConfig(), nil)
	run, err := sc.MakeRun(experiments.RunParams{FileLevel: true, CacheSlots: 2, Mode: experiments.TrueDemand, Hour: 10})
	if err != nil {
		t.Fatal(err)
	}
	var log solveLog
	ctx := lp.ObserveSolves(context.Background(), log.observe)
	planner := strategy.MustNew("alternating", strategy.Options{NoSolverReuse: true})
	if _, _, err := planner.Decide(ctx, strategy.Instance{Spec: run.Decision, Dist: run.Dist}); err != nil {
		t.Fatal(err)
	}
	mc := 0
	for _, seq := range log.seqs {
		for _, p := range seq {
			if p.NumConstraints() != 392 {
				continue // the per-path placement LPs
			}
			mc++
			sol, err := p.Solve(nil)
			if err != nil {
				t.Fatalf("multicommodity LP %d (%d vars): %v", mc, p.NumVars(), err)
			}
			dense, err := p.SolveDense(nil)
			if err != nil {
				t.Fatalf("multicommodity LP %d: dense oracle: %v", mc, err)
			}
			if d := sol.Objective - dense.Objective; d > 1e-9*dense.Objective || -d > 1e-9*dense.Objective {
				t.Fatalf("multicommodity LP %d: objective %v, dense oracle %v", mc, sol.Objective, dense.Objective)
			}
		}
	}
	if mc == 0 {
		t.Fatal("no multicommodity LP solved at the pinned point")
	}
	t.Logf("%d multicommodity LPs solved", mc)
}
