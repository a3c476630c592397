// Heterogeneous file sizes: the Section-5 extension. Whole video files of
// different sizes are cached directly (no chunking). The greedy
// 1/(1+p)-approximate placement respects byte capacities, while equal-size
// placement algorithms applied to the same files overflow the caches - the
// infeasibility the paper demonstrates in Fig. 5.
//
//	go run ./examples/hetero
package main

import (
	"fmt"
	"log"
	"math/rand"

	"jcr"
	"jcr/internal/demand"
	"jcr/internal/placement"
)

func main() {
	net := jcr.Abovenet(2)
	rng := rand.New(rand.NewSource(11))
	net.AssignCosts(rng, 100, 200, 1, 20)
	net.SetUnlimitedCapacity()

	videos := demand.TopVideos(10)
	items := demand.FileCatalog(videos)
	sizes := make([]float64, len(items))
	var avg float64
	for i, it := range items {
		sizes[i] = it.SizeMB
		avg += it.SizeMB
	}
	avg /= float64(len(items))

	// Demand: one trace hour in MB/hour, spread over the edges.
	trace := demand.SynthesizeTrace(videos, 650, 21)
	itemRates := demand.ItemRates(items, trace.Views[620], true)
	perEdge := demand.SpreadToEdges(itemRates, len(net.Edges), rng)
	rates := make([][]float64, len(items))
	for i := range rates {
		rates[i] = make([]float64, net.G.NumNodes())
		for e, v := range net.Edges {
			rates[i][v] = perEdge[i][e]
		}
	}

	// Each edge cache holds zeta = 2 average file sizes (in MB); the
	// equal-size baselines instead count 2 item slots.
	cacheCap := make([]float64, net.G.NumNodes())
	slotCap := make([]float64, net.G.NumNodes())
	for _, v := range net.Edges {
		cacheCap[v] = 2 * avg
		slotCap[v] = 2
	}
	spec := &jcr.Spec{
		G:        net.G,
		NumItems: len(items),
		CacheCap: cacheCap,
		ItemSize: sizes,
		Pinned:   []int{net.Origin},
		Rates:    rates,
	}
	dist := jcr.AllPairs(net.G)

	fmt.Printf("heterogeneous files: %d videos (%.0f-%.0f MB), %d edge caches of %.0f MB each\n\n",
		len(items), minOf(sizes), maxOf(sizes), len(net.Edges), 2*avg)
	fmt.Printf("%-26s %12s %16s\n", "algorithm", "cost", "max occupancy")

	gr, err := jcr.Greedy(spec, dist)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-26s %12.4g %15.2f%%\n", "greedy (ours, Thm 5.2)", gr.Cost, 100*spec.MaxOccupancyRatio(gr.Placement))

	// Equal-size baselines: they fill 2 slots per cache regardless of
	// file size and overflow the byte capacity.
	sp, _, err := placement.SP38(nil, spec, net.Origin, slotCap)
	if err != nil {
		log.Fatal(err)
	}
	_, spCost, err := spec.RNRSources(sp, dist)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-26s %12.4g %15.2f%%\n", "shortest path [38]", spCost, 100*spec.MaxOccupancyRatio(sp))

	ksp, err := placement.KSP3(spec, net.Origin, 10, slotCap)
	if err != nil {
		log.Fatal(err)
	}
	_, kspCost, err := spec.RNRSources(ksp.Placement, dist)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-26s %12.4g %15.2f%%\n", "k shortest paths [3]", kspCost, 100*spec.MaxOccupancyRatio(ksp.Placement))

	fmt.Println("\noccupancy above 100% means the placement does not actually fit:")
	fmt.Println("pipage-style equal-size algorithms swap same-slot items of different")
	fmt.Println("byte sizes (Section 5.2.2), so only the greedy placement is feasible.")
}

func minOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

func maxOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}
