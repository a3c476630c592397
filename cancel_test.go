package jcr_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	"jcr/internal/core"
	"jcr/internal/exact"
	"jcr/internal/flow"
	"jcr/internal/graph"
	"jcr/internal/lp"
	"jcr/internal/msufp"
	"jcr/internal/placement"
	"jcr/internal/routing"
	"jcr/internal/strategy"
)

// cancelSpec is a small capacitated instance every solver below accepts:
// origin 0 (pinned) feeds two unit caches (1, 2) that serve three
// requesters (3, 4, 5) over two items of homogeneous size. It is tiny
// enough for the exact IC-FR enumeration and the literal FC-FR LP, and
// every solver has real work to do on it: positive demand, replicas at
// the origin, and a link-capacity row.
func cancelSpec() *placement.Spec {
	g := graph.New(6)
	g.AddEdge(0, 1, 10, 30)
	g.AddEdge(0, 2, 12, 30)
	g.AddEdge(1, 3, 1, 30)
	g.AddEdge(1, 4, 2, 30)
	g.AddEdge(2, 4, 1, 30)
	g.AddEdge(2, 5, 1, 30)
	return &placement.Spec{
		G:        g,
		NumItems: 2,
		CacheCap: []float64{0, 1, 1, 0, 0, 0},
		Pinned:   []int{0},
		Rates: [][]float64{
			{0, 0, 0, 4, 3, 2},
			{0, 0, 0, 1, 2, 3},
		},
	}
}

// lateCancel is a canceled context that reports itself live for its first
// live Err polls. It lets a row get past an entry's own up-front poll and
// prove that the ctx also reaches the solver underneath.
type lateCancel struct {
	context.Context
	live int
}

func (c *lateCancel) Err() error {
	if c.live > 0 {
		c.live--
		return nil
	}
	return c.Context.Err()
}

// TestSolversHonourCanceledContext gives every ctx-first solver entry a
// canceled context and requires an error wrapping context.Canceled, raised
// by the named layer: the one that actually polled the ctx. Every row
// would succeed on this instance if its ctx were dropped on the way down
// (the solvers are deterministic and the instance feasible), so a row
// fails exactly when some layer stops threading the ctx.
func TestSolversHonourCanceledContext(t *testing.T) {
	s := cancelSpec()
	dist := graph.AllPairs(s.G)
	origin := s.Pinned[0]
	paths, err := placement.ShortestServingPaths(s, origin)
	if err != nil {
		t.Fatal(err)
	}
	// max x0 + x1 s.t. x0 + 2 x1 <= 4, x0 >= 1: the GE row needs phase 1,
	// so both simplex implementations reach their pivot loops. Solving
	// does not mutate the problem, so the rows share it.
	prob := lp.NewProblem(2)
	prob.SetSense(lp.Maximize)
	prob.SetObjectiveCoeff(0, 1)
	prob.SetObjectiveCoeff(1, 1)
	if err := prob.AddConstraint([]int{0, 1}, []float64{1, 2}, lp.LE, 4); err != nil {
		t.Fatal(err)
	}
	if err := prob.AddConstraint([]int{0}, []float64{1}, lp.GE, 1); err != nil {
		t.Fatal(err)
	}
	minst := &msufp.Instance{G: s.G, Source: origin, Commodities: []msufp.Commodity{
		{Dest: 3, Demand: 4}, {Dest: 4, Demand: 3}, {Dest: 5, Demand: 1},
	}}
	rows := []struct {
		name string
		// live is how many ctx polls see a live context before the
		// cancellation shows (0: canceled from the first poll).
		live int
		// layer is a substring of the error message naming the solver
		// that observed the cancellation.
		layer string
		run   func(ctx context.Context) error
	}{
		{"lp.Problem.Solve", 0, "lp: canceled", func(ctx context.Context) error {
			_, err := prob.Solve(ctx)
			return err
		}},
		{"lp.Solver.Solve", 0, "lp: canceled", func(ctx context.Context) error {
			_, err := lp.NewSolver().Solve(ctx, prob)
			return err
		}},
		{"lp.Problem.SolveDense", 0, "lp: canceled", func(ctx context.Context) error {
			_, err := prob.SolveDense(ctx)
			return err
		}},
		{"flow.MinCostFlow", 0, "flow: canceled", func(ctx context.Context) error {
			_, err := flow.MinCostFlow(ctx, s.G, 0, 5, 1)
			return err
		}},
		// One live poll passes the worker pool's per-item check, so the
		// first item's min-cost flow is the layer that sees the cancellation.
		{"routing.Route", 1, "flow: canceled", func(ctx context.Context) error {
			_, err := routing.Route(ctx, s, s.NewPlacement(), routing.Options{Fractional: true, Workers: 1})
			return err
		}},
		{"strategy.Alternating.Decide", 1, "strategy: alternating initial routing: flow: canceled", func(ctx context.Context) error {
			alt := &strategy.Alternating{Options: strategy.Options{Fractional: true, Workers: 1}}
			_, _, err := alt.Decide(ctx, strategy.Instance{Spec: s})
			return err
		}},
		{"placement.PlacePerPath", 0, "placement: per-path enumeration", func(ctx context.Context) error {
			_, err := placement.PlacePerPath(ctx, s, paths, placement.PerPathOptions{Method: placement.PerPathLP, Workers: 1})
			return err
		}},
		{"placement.Alg1", 0, "placement: auxiliary LP: lp: canceled", func(ctx context.Context) error {
			_, err := placement.Alg1(ctx, s, dist, placement.Alg1Options{})
			return err
		}},
		{"placement.SP38", 0, "placement: per-path enumeration", func(ctx context.Context) error {
			_, _, err := placement.SP38(ctx, s, origin, nil)
			return err
		}},
		{"msufp.SolveAlg2", 0, "msufp: splittable optimum: flow: canceled", func(ctx context.Context) error {
			_, err := msufp.SolveAlg2(ctx, minst, 4)
			return err
		}},
		{"core.SolveFCFR", 0, "core: FC-FR LP: lp: canceled", func(ctx context.Context) error {
			_, err := core.SolveFCFR(ctx, s)
			return err
		}},
		{"routing.SolveMMSFPExact", 0, "routing: multicommodity LP: lp: canceled", func(ctx context.Context) error {
			_, err := routing.SolveMMSFPExact(ctx, s, s.NewPlacement())
			return err
		}},
		// One live poll passes SolveICFR's entry check; the first
		// placement's routing LP must then see the cancellation (the
		// enumeration's own poll fires only every few hundred placements,
		// more than this instance has).
		{"exact.SolveICFR", 1, "exact: context canceled", func(ctx context.Context) error {
			_, err := exact.SolveICFR(ctx, s)
			return err
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			if err := row.run(nil); err != nil {
				t.Fatalf("uncanceled run failed, so the row proves nothing: %v", err)
			}
			parent, cancel := context.WithCancel(context.Background())
			cancel()
			err := row.run(&lateCancel{Context: parent, live: row.live})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want one wrapping context.Canceled", err)
			}
			if !strings.Contains(err.Error(), row.layer) {
				t.Errorf("err = %q, want the cancellation raised by %q", err, row.layer)
			}
		})
	}
}
