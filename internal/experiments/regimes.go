package experiments

import (
	"fmt"
	"strings"

	"jcr/internal/core"
	"jcr/internal/exact"
	"jcr/internal/graph"
	"jcr/internal/placement"
	"jcr/internal/strategy"
)

// Regimes quantifies the Section 2.4 trade-off between the three regimes
// on a small instance where every optimum is computable exactly: the FC-FR
// LP, the exact IC-FR (placement enumeration + exact routing LPs), and the
// exact IC-IR (additionally enumerating integral paths), next to the
// polynomial-time Section 4.3 solutions. FC-FR <= IC-FR <= IC-IR by
// relaxation; the two gaps measure what coded caching buys (fractional
// placement of large items) and what multi-path routing buys (splitting a
// demand that exceeds the cheap route's capacity).
func Regimes(cfg *Config) (string, error) {
	// The instance: origin O(0) reaches edge cache A(3) via a cheap
	// narrow route (through x=1) and an expensive wide route (through
	// y=2); a second requester B(4) hangs off A. Items are large (2 MB
	// in a 3-MB cache), so integral caching wastes a slot fraction, and
	// item 1's demand exceeds the cheap route, so single-path routing
	// must overpay.
	g := graph.New(5)
	g.AddEdge(0, 1, 5, 6)   // O-x, cheap and narrow
	g.AddEdge(1, 3, 5, 6)   // x-A
	g.AddEdge(0, 2, 15, 20) // O-y, expensive and wide
	g.AddEdge(2, 3, 15, 20) // y-A
	g.AddEdge(3, 4, 2, 30)  // A-B
	spec := &placement.Spec{
		G:        g,
		NumItems: 3,
		CacheCap: []float64{0, 0, 0, 3, 0}, // 3 MB at A
		ItemSize: []float64{2, 2, 2},
		Pinned:   []graph.NodeID{0},
		Rates: [][]float64{
			{0, 0, 0, 10, 0}, // item 0: hot at A
			{0, 0, 0, 0, 8},  // item 1: hot at B, exceeds the cheap route
			{0, 0, 0, 0, 3},  // item 2: mild at B
		},
	}

	var b strings.Builder
	b.WriteString("== Regime comparison (Section 2.4): what fractionality buys ==\n")
	b.WriteString("5-node instance: 3-MB cache at the edge, 2-MB items, a cheap narrow\n")
	b.WriteString("route and an expensive wide route from the origin\n\n")
	fmt.Fprintf(&b, "%-34s %14s\n", "solution", "routing cost")

	fcfr, err := core.SolveFCFR(spec)
	if err != nil {
		return "", fmt.Errorf("regimes FC-FR: %w", err)
	}
	fmt.Fprintf(&b, "%-34s %14.6g\n", "FC-FR optimum (LP)", fcfr.Cost)

	icfr, err := exact.SolveICFR(nil, spec)
	if err != nil {
		return "", fmt.Errorf("regimes IC-FR: %w", err)
	}
	fmt.Fprintf(&b, "%-34s %14.6g\n", "IC-FR optimum (exact)", icfr.Cost)

	icir, _, err := strategy.MustNew("exact", strategy.Options{}).
		Decide(nil, strategy.Instance{Spec: spec})
	if err != nil {
		return "", fmt.Errorf("regimes IC-IR: %w", err)
	}
	fmt.Fprintf(&b, "%-34s %14.6g\n", "IC-IR optimum (exact)", icir.Cost)

	altFrac, _, err := strategy.MustNew("alternating", strategy.Options{Fractional: true, NoSolverReuse: true}).
		Decide(nil, strategy.Instance{Spec: spec})
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "%-34s %14.6g\n", "alternating, IC-FR (Sec. 4.3)", altFrac.Cost)

	altInt, _, err := strategy.MustNew("alternating", strategy.Options{NoSolverReuse: true}).
		Decide(nil, strategy.Instance{Spec: spec})
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "%-34s %14.6g\n", "alternating, IC-IR (Sec. 4.3)", altInt.Cost)

	fmt.Fprintf(&b, "\nintegral caching penalty (IC-FR/FC-FR):   %.4f\n", ratio(icfr.Cost, fcfr.Cost))
	fmt.Fprintf(&b, "single-path penalty    (IC-IR/IC-FR):     %.4f\n", ratio(icir.Cost, icfr.Cost))
	fmt.Fprintf(&b, "alternating optimality gap (IC-IR):       %.4f\n", ratio(altInt.Cost, icir.Cost))
	return b.String(), nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 1
	}
	return a / b
}
