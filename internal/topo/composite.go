package topo

import (
	"fmt"
	"sort"

	"jcr/internal/graph"
)

// gatewaysPerSeam is how many undirected gateway links stitch each pair of
// consecutive blocks in a composite network: two, so no seam is a single
// point of failure and traffic crossing a seam always has a second route.
const gatewaysPerSeam = 2

// CompositeNetwork is a Network stitched from identical copies of a base
// network, plus its block structure: which block every node belongs to,
// each block's origin (regional catalog mirrors), and the gateway links
// that couple consecutive blocks.
type CompositeNetwork struct {
	*Network
	// Blocks is the number of stitched copies (the K of Composite).
	Blocks int
	// BlockSize is the node count of one block; node v belongs to block
	// v / BlockSize.
	BlockSize int
	// BlockOrigins[b] is block b's copy of the base origin. BlockOrigins[0]
	// is the composite's Network.Origin.
	BlockOrigins []graph.NodeID
	// GatewayLinks lists the stitching edges as (u, v) global node pairs,
	// seam by seam; each is one undirected link (two arcs) of G.
	GatewayLinks [][2]graph.NodeID
}

// Composite stitches k copies of base into one network: block b occupies
// nodes [b*n, (b+1)*n) with base's arc list repeated verbatim (same order,
// same costs and capacities), and consecutive blocks are joined by
// gatewaysPerSeam undirected links between deterministic high-degree core
// nodes. Composite(base, 1) adds no gateway links and is isomorphic to base
// node-for-node and arc-for-arc (the property test pins this). Every
// block's copy of the base origin is reported in BlockOrigins so callers
// can pin regional catalog mirrors, which keeps every block's demand
// servable from inside the block.
//
// k < 1 is rejected, as is a base without the two distinct gateway
// candidates a seam needs; the constructed seam count is validated against
// gatewaysPerSeam*(k-1) before returning.
func Composite(base *Network, k int) (*CompositeNetwork, error) {
	if k < 1 {
		return nil, fmt.Errorf("topo: composite needs at least 1 block, got %d", k)
	}
	if base == nil || base.G == nil || base.G.NumNodes() == 0 {
		return nil, fmt.Errorf("topo: composite needs a non-empty base network")
	}
	n := base.G.NumNodes()
	gws := gatewayCandidates(base)
	if k > 1 && len(gws) < gatewaysPerSeam {
		return nil, fmt.Errorf("topo: base %q has %d gateway candidates, need %d", base.Name, len(gws), gatewaysPerSeam)
	}
	g := graph.New(n * k)
	comp := &CompositeNetwork{
		Network: &Network{
			Name: fmt.Sprintf("%s-x%d", base.Name, k),
			G:    g,
		},
		Blocks:    k,
		BlockSize: n,
	}
	// Blocks first, arc order matching the base verbatim per block, so
	// block b's arc id for base arc e is b*base.NumArcs() + e.
	for b := 0; b < k; b++ {
		off := b * n
		for id := 0; id < base.G.NumArcs(); id++ {
			a := base.G.Arc(id)
			g.AddArc(a.From+off, a.To+off, a.Cost, a.Cap)
		}
		comp.BlockOrigins = append(comp.BlockOrigins, base.Origin+off)
		for _, e := range base.Edges {
			comp.Edges = append(comp.Edges, e+off)
		}
	}
	comp.Origin = comp.BlockOrigins[0]
	// Seams after all blocks, so block-local arc ids stay aligned with the
	// base. Gateway links inherit the mean base link cost (they are core
	// links; AssignCosts re-prices everything later anyway) and start
	// uncapacitated like base construction does.
	seamCost := meanArcCost(base.G)
	for b := 0; b+1 < k; b++ {
		for s := 0; s < gatewaysPerSeam; s++ {
			u := gws[s] + b*n
			v := gws[(s+1)%len(gws)] + (b+1)*n
			g.AddEdge(u, v, seamCost, graph.Unlimited)
			comp.GatewayLinks = append(comp.GatewayLinks, [2]graph.NodeID{u, v})
		}
	}
	if got, want := len(comp.GatewayLinks), gatewaysPerSeam*(k-1); got != want {
		return nil, fmt.Errorf("topo: composite built %d gateway links, want %d", got, want)
	}
	comp.IndexRoles()
	// Every block origin is an origin, not an internal router; IndexRoles
	// only knows the single Network.Origin.
	for _, o := range comp.BlockOrigins {
		comp.notInternal[o] = true
	}
	return comp, nil
}

// gatewayCandidates picks the base nodes that carry seams: the
// highest-degree internal routers (ties broken by lower node ID), the nodes
// an ISP would interconnect at. Falls back to any non-origin node when the
// base designates everything as origin or edge.
func gatewayCandidates(base *Network) []graph.NodeID {
	var cands []graph.NodeID
	for v := 0; v < base.G.NumNodes(); v++ {
		if base.Internal(v) {
			cands = append(cands, v)
		}
	}
	if len(cands) < gatewaysPerSeam {
		cands = cands[:0]
		for v := 0; v < base.G.NumNodes(); v++ {
			if v != base.Origin {
				cands = append(cands, v)
			}
		}
	}
	sort.SliceStable(cands, func(a, b int) bool {
		da, db := base.G.UndirectedDegree(cands[a]), base.G.UndirectedDegree(cands[b])
		if da != db {
			return da > db
		}
		return cands[a] < cands[b]
	})
	if len(cands) > gatewaysPerSeam {
		cands = cands[:gatewaysPerSeam]
	}
	return cands
}

// meanArcCost averages the arc costs of a graph (1 for an empty graph,
// matching the generators' default link cost).
func meanArcCost(g *graph.Graph) float64 {
	if g.NumArcs() == 0 {
		return 1
	}
	var sum float64
	for id := 0; id < g.NumArcs(); id++ {
		sum += g.Arc(id).Cost
	}
	return sum / float64(g.NumArcs())
}

// AugmentBlockFeasibility raises capacities from every block's origin to
// that block's edge nodes by the edge node's demand, the per-block
// counterpart of Network.AugmentFeasibility: with regional catalog mirrors
// pinned at the block origins, every request can be served inside its own
// block as a last resort. edgeDemand aligns with comp.Edges.
func (comp *CompositeNetwork) AugmentBlockFeasibility(edgeDemand []float64) error {
	if len(edgeDemand) != len(comp.Edges) {
		return fmt.Errorf("topo: %d demands for %d edge nodes", len(edgeDemand), len(comp.Edges))
	}
	perBlock := len(comp.Edges) / comp.Blocks
	savedOrigin := comp.Origin
	defer func() { comp.Origin = savedOrigin }()
	for b := 0; b < comp.Blocks; b++ {
		comp.Origin = comp.BlockOrigins[b]
		blockDemand := make([]float64, len(comp.Edges))
		copy(blockDemand[b*perBlock:(b+1)*perBlock], edgeDemand[b*perBlock:(b+1)*perBlock])
		if err := comp.AugmentFeasibility(blockDemand); err != nil {
			return err
		}
	}
	return nil
}
