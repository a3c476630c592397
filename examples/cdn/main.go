// CDN replica selection: the binary-cache-capacity scenario of Section 4.2.
// A set of replica servers each store the whole catalog; every request must
// be routed, unsplittably, from some replica within link capacities.
// Algorithm 2 (with large K) is compared against the prior state of the art
// (Skutella's algorithm, the K=2 special case), the capacity-oblivious
// route-to-nearest-replica policy, and the splittable lower bound.
//
//	go run ./examples/cdn
package main

import (
	"fmt"
	"log"
	"math/rand"

	"jcr"
	"jcr/internal/graph"
	"jcr/internal/msufp"
)

func main() {
	// An Abvt-sized network; the origin gateway and one edge node act as
	// the two full-catalog replica servers.
	net := jcr.Abvt(3)
	rng := rand.New(rand.NewSource(5))
	net.AssignCosts(rng, 100, 200, 1, 20)
	net.SetUniformCapacity(900)

	// 60 commodities: user sites requesting content at heterogeneous
	// rates (a long-tailed demand mix).
	type dem struct {
		dest   graph.NodeID
		demand float64
	}
	var commodities []dem
	perEdge := make([]float64, len(net.Edges))
	for i := 0; i < 60; i++ {
		e := 1 + rng.Intn(len(net.Edges)-1)
		d := 10 * (1 + rng.ExpFloat64()*3)
		commodities = append(commodities, dem{dest: net.Edges[e], demand: d})
		perEdge[e] += d
	}
	// Make the instance feasible before cloning into the auxiliary
	// graph: raise capacities along the origin's tree by the
	// per-destination demand.
	if err := net.AugmentFeasibility(perEdge); err != nil {
		log.Fatal(err)
	}

	replicas := []graph.NodeID{net.Origin, net.Edges[0]}
	aux := graph.NewAuxiliary(net.G, [][]graph.NodeID{replicas})
	inst := &jcr.MSUFPInstance{G: aux.G, Source: aux.VirtualSource[0]}
	for _, c := range commodities {
		inst.Commodities = append(inst.Commodities, jcr.MSUFPCommodity{Dest: c.dest, Demand: c.demand})
	}

	split, err := inst.SplittableOptimum(nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("CDN scenario on %s: %d commodities, 2 replica servers\n", net.Name, len(inst.Commodities))
	fmt.Printf("splittable optimum (lower bound):  cost %.4g\n\n", split.Cost)
	fmt.Printf("%-28s %12s %12s\n", "algorithm", "cost", "congestion")

	for _, entry := range []struct {
		name string
		k    int
	}{
		{"Alg. 2, K=1000 (ours)", 1000},
		{"Alg. 2, K=16", 16},
		{"Skutella [33] (K=2)", 2},
	} {
		asgn, err := jcr.SolveMSUFP(inst, entry.k)
		if err != nil {
			log.Fatal(err)
		}
		if err := inst.Validate(asgn); err != nil {
			log.Fatal(err)
		}
		m := inst.Evaluate(asgn)
		fmt.Printf("%-28s %12.4g %12.3f\n", entry.name, m.Cost, m.MaxUtilization)
	}
	rnr, err := msufp.SolveRNR(inst)
	if err != nil {
		log.Fatal(err)
	}
	m := inst.Evaluate(rnr)
	fmt.Printf("%-28s %12.4g %12.3f\n", "route-to-nearest-replica", m.Cost, m.MaxUtilization)
	fmt.Println("\n(Theorem 4.7: Algorithm 2's cost never exceeds the splittable optimum,")
	fmt.Println(" and its per-link overload shrinks as K grows.)")
}
