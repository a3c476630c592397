// Online operation: re-optimize caching and routing every hour from
// Gaussian-process demand forecasts and serve the realized demand,
// comparing adaptive, warm-started, and frozen strategies on cost,
// congestion, and placement churn (items moved per hour).
//
//	go run ./examples/online
package main

import (
	"context"
	"fmt"
	"log"

	"jcr"
	"jcr/internal/experiments"
	"jcr/internal/online"
	"jcr/internal/strategy"
)

func main() {
	cfg := jcr.DefaultExperimentConfig()
	cfg.GPRWindow = 96
	sc := experiments.NewScenario(cfg, nil)

	// Eight consecutive hours of the trace; decisions see only the GPR
	// forecast, evaluation uses the realized demand.
	var hours []online.HourInput
	for h := 0; h < 8; h++ {
		run, err := sc.MakeRun(experiments.RunParams{
			Mode: experiments.GPRPrediction,
			Hour: 40 + h,
		})
		if err != nil {
			log.Fatal(err)
		}
		hours = append(hours, online.HourInput{
			Hour:     40 + h,
			Decision: run.Decision,
			Truth:    run.Truth,
			Dist:     run.Dist,
		})
	}

	fmt.Println("online edge caching over 8 hours (decisions on GPR forecasts):")
	fmt.Printf("%-28s %14s %12s %8s\n", "strategy", "total cost", "mean cong.", "churn")
	alternating := func(o strategy.Options) strategy.Strategy { return strategy.MustNew("alternating", o) }
	for _, e := range []struct {
		label string
		st    strategy.Strategy
	}{
		{"alternating", alternating(strategy.Options{})},
		{"alternating (warm start)", alternating(strategy.Options{WarmStart: true})},
		{"static alternating", &strategy.Static{Inner: alternating(strategy.Options{})}},
		{"SP [38]", strategy.MustNew("sp", strategy.Options{})},
		{"greedy + RNR", strategy.MustNew("rnr", strategy.Options{})},
	} {
		series, err := online.Run(context.Background(), e.st, hours, online.Options{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-28s %14.4g %12.3f %8d\n",
			e.label, series.TotalCost(), series.MeanCongestion(), series.TotalChurn())
	}
	fmt.Println("\nchurn counts cache entries changed between consecutive hours. The")
	fmt.Println("cold-started optimizer tracks demand drift at the price of churn;")
	fmt.Println("warm-starting keeps the incumbent placement unless re-optimizing")
	fmt.Println("strictly improves it, trading adaptivity for stability. The")
	fmt.Println("capacity-oblivious RNR baseline is cheap but congests links 10x.")
}
