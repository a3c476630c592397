// Package topo builds the evaluation networks of the paper's Section 6 and
// Appendix D: an Abovenet-like ISP topology with a degree-1 origin server
// and low-degree edge nodes, plus generated stand-ins for the Topology-Zoo
// networks of Table 5 (Abvt, Tinet, Deltacom) with their exact node and
// link counts. The real Rocketfuel/Topology-Zoo data files are not
// redistributable here, so the package generates deterministic topologies
// with the same sizes and degree structure; a simple edge-list parser is
// provided for plugging in real data.
package topo

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strconv"
	"strings"

	"jcr/internal/graph"
	"jcr/internal/rng"
)

// Network is an evaluation topology with its cache-placement designations.
type Network struct {
	Name string
	G    *graph.Graph
	// Origin is (the gateway to) the origin server, permanently storing
	// the whole catalog; the paper designates a degree-1 node.
	Origin graph.NodeID
	// Edges are the edge nodes: low-degree nodes that receive user
	// requests and host caches.
	Edges []graph.NodeID

	// notInternal is the role lookup built by IndexRoles: true for the
	// origin and every edge node. Nil (a literal-constructed Network)
	// falls back to scanning Edges.
	notInternal []bool
}

// IndexRoles precomputes the node-role lookup behind Internal, turning it
// from an O(|Edges|) scan into an array read. The package's constructors
// call it; callers that re-designate Origin or Edges afterwards must call
// it again (or leave the lookup unbuilt for the scanning fallback).
func (n *Network) IndexRoles() {
	ni := make([]bool, n.G.NumNodes())
	if n.Origin >= 0 && n.Origin < len(ni) {
		ni[n.Origin] = true
	}
	for _, e := range n.Edges {
		if e >= 0 && e < len(ni) {
			ni[e] = true
		}
	}
	n.notInternal = ni
}

// Internal reports whether v is an internal router (neither origin nor
// edge node).
func (n *Network) Internal(v graph.NodeID) bool {
	if v >= 0 && v < len(n.notInternal) {
		return !n.notInternal[v]
	}
	if v == n.Origin {
		return false
	}
	for _, e := range n.Edges {
		if e == v {
			return false
		}
	}
	return true
}

// Generate builds a connected undirected topology with exactly the given
// node and edge counts, deterministic in seed. A preferential-attachment
// tree creates hub-and-leaf structure (so low-degree nodes exist for the
// origin/edge designations); extra links are added between non-leaf nodes.
// numEdgeNodes low-degree nodes are designated edge nodes, following the
// paper's rule: the lowest-degree node is the origin and the next lowest
// are the edge nodes.
func Generate(name string, nodes, links, numEdgeNodes int, seed int64) (*Network, error) {
	if nodes < 3 {
		return nil, fmt.Errorf("topo: need at least 3 nodes, got %d", nodes)
	}
	if links < nodes-1 {
		return nil, fmt.Errorf("topo: %d links cannot connect %d nodes", links, nodes)
	}
	maxLinks := nodes * (nodes - 1) / 2
	if links > maxLinks {
		return nil, fmt.Errorf("topo: %d links exceed simple-graph maximum %d", links, maxLinks)
	}
	rng := rng.New(seed)
	g := graph.New(nodes)
	deg := make([]int, nodes)
	adjacent := make(map[[2]int]bool)
	addLink := func(u, v int) {
		g.AddEdge(u, v, 1, graph.Unlimited)
		deg[u]++
		deg[v]++
		if u > v {
			u, v = v, u
		}
		adjacent[[2]int{u, v}] = true
	}
	// Preferential-attachment spanning tree: creates the hub-and-stub
	// structure of PoP-level ISP maps.
	for v := 1; v < nodes; v++ {
		total := 0
		for u := 0; u < v; u++ {
			total += deg[u] + 1
		}
		pick := rng.Intn(total)
		u := 0
		for acc := 0; u < v; u++ {
			acc += deg[u] + 1
			if pick < acc {
				break
			}
		}
		addLink(u, v)
	}
	// Reserve one degree-1 stub for the origin server (the paper
	// designates a degree-1 node as the gateway to the origin); the
	// remaining leaves are meshed up by the extra links so the core
	// looks like a backbone, leaving low-degree (<= 3) nodes to serve
	// as edge caches that other traffic can transit.
	reserved := make(map[int]bool, 1)
	for v := 0; v < nodes; v++ {
		if deg[v] == 1 {
			reserved[v] = true
			break
		}
	}
	if len(reserved) == 0 {
		return nil, fmt.Errorf("topo: tree has no leaf for the origin")
	}
	for g.NumArcs()/2 < links {
		// Lift the lowest-degree unreserved node first, breaking ties
		// randomly, so leaves join the mesh before hubs grow further.
		u := -1
		for v := 0; v < nodes; v++ {
			if reserved[v] {
				continue
			}
			if u < 0 || deg[v] < deg[u] || (deg[v] == deg[u] && rng.Intn(2) == 0) {
				u = v
			}
		}
		placed := false
		for attempt := 0; attempt < 4*nodes; attempt++ {
			v := rng.Intn(nodes)
			if v == u || reserved[v] {
				continue
			}
			a, b := u, v
			if a > b {
				a, b = b, a
			}
			if adjacent[[2]int{a, b}] {
				continue
			}
			addLink(u, v)
			placed = true
			break
		}
		if !placed {
			// u is saturated against all unreserved nodes; fall back
			// to any missing unreserved pair.
			if w, x, ok := anyMissingUnreservedPair(nodes, adjacent, reserved); ok {
				addLink(w, x)
				continue
			}
			return nil, fmt.Errorf("topo: cannot reach %d links with %d reserved stubs", links, len(reserved))
		}
	}
	net := &Network{Name: name, G: g}
	order := g.NodesByDegree()
	net.Origin = order[0]
	for _, v := range order[1:] {
		if len(net.Edges) >= numEdgeNodes {
			break
		}
		net.Edges = append(net.Edges, v)
	}
	if len(net.Edges) < numEdgeNodes {
		return nil, fmt.Errorf("topo: only %d candidate edge nodes, want %d", len(net.Edges), numEdgeNodes)
	}
	net.IndexRoles()
	return net, nil
}

func anyMissingUnreservedPair(nodes int, adjacent map[[2]int]bool, reserved map[int]bool) (int, int, bool) {
	for u := 0; u < nodes; u++ {
		if reserved[u] {
			continue
		}
		for v := u + 1; v < nodes; v++ {
			if reserved[v] || adjacent[[2]int{u, v}] {
				continue
			}
			return u, v, true
		}
	}
	return 0, 0, false
}

// The canonical evaluation networks. Abovenet models the Rocketfuel-based
// topology of Fig. 3 (with the paper's default of designating the
// low-degree nodes as edge caches); Abvt, Tinet and Deltacom match the
// sizes in Table 5, which designate 5 edge nodes each.

// Abovenet returns the default Section-6 evaluation network.
func Abovenet(seed int64) *Network {
	n, err := Generate("Abovenet", 23, 31, 9, seed)
	if err != nil {
		//jcrlint:allow lib-panic: programmer-error guard; the canned parameters are statically valid
		panic(err)
	}
	return n
}

// Abvt returns the Table 5 "Abvt" network: 23 nodes, 31 links.
func Abvt(seed int64) *Network {
	n, err := Generate("Abvt", 23, 31, 5, seed)
	if err != nil {
		//jcrlint:allow lib-panic: programmer-error guard; the canned parameters are statically valid
		panic(err)
	}
	return n
}

// Tinet returns the Table 5 "Tinet" network: 53 nodes, 89 links.
func Tinet(seed int64) *Network {
	n, err := Generate("Tinet", 53, 89, 5, seed)
	if err != nil {
		//jcrlint:allow lib-panic: programmer-error guard; the canned parameters are statically valid
		panic(err)
	}
	return n
}

// Deltacom returns the Table 5 "Deltacom" network: 113 nodes, 161 links.
func Deltacom(seed int64) *Network {
	n, err := Generate("Deltacom", 113, 161, 5, seed)
	if err != nil {
		//jcrlint:allow lib-panic: programmer-error guard; the canned parameters are statically valid
		panic(err)
	}
	return n
}

// AssignCosts draws link costs per Section 6: links incident to the origin
// server cost Uniform[originLo, originHi] (the origin is far from users)
// and all other links cost Uniform[lo, hi]. Opposite directions of a link
// get the same cost.
func (n *Network) AssignCosts(rng *rand.Rand, originLo, originHi, lo, hi float64) {
	m := n.G.NumArcs()
	done := make([]bool, m)
	for id := 0; id < m; id++ {
		if done[id] {
			continue
		}
		a := n.G.Arc(id)
		var c float64
		if a.From == n.Origin || a.To == n.Origin {
			c = originLo + rng.Float64()*(originHi-originLo)
		} else {
			c = lo + rng.Float64()*(hi-lo)
		}
		n.G.SetArcCost(id, c)
		done[id] = true
		// The paired reverse arc was added immediately after by
		// AddEdge; find it and give it the same cost.
		for id2 := id + 1; id2 < m; id2++ {
			b := n.G.Arc(id2)
			if !done[id2] && b.From == a.To && b.To == a.From {
				n.G.SetArcCost(id2, c)
				done[id2] = true
				break
			}
		}
	}
}

// SetUniformCapacity assigns every arc the same capacity (the default
// kappa of Section 6, or Table 5's 1 Gbps equivalents).
func (n *Network) SetUniformCapacity(capacity float64) {
	for id := 0; id < n.G.NumArcs(); id++ {
		n.G.SetArcCap(id, capacity)
	}
}

// SetUnlimitedCapacity removes all link capacity constraints (the
// Section 4.1 regime).
func (n *Network) SetUnlimitedCapacity() {
	for id := 0; id < n.G.NumArcs(); id++ {
		n.G.SetArcCap(id, graph.Unlimited)
	}
}

// AugmentFeasibility raises capacities along one cycle-free path from the
// origin to each edge node by that edge node's total demand, the paper's
// construction guaranteeing that every request can be served by the origin
// server as a last resort. The augmented paths are minimum-hop (not
// minimum-cost) paths: the guarantee needs any cycle-free path, and using
// the min-cost tree would make cost-greedy routing capacity-safe by
// construction, hiding the congestion effects the evaluation studies.
// edgeDemand[k] is the total request rate arriving at Edges[k].
func (n *Network) AugmentFeasibility(edgeDemand []float64) error {
	if len(edgeDemand) != len(n.Edges) {
		return fmt.Errorf("topo: %d demands for %d edge nodes", len(edgeDemand), len(n.Edges))
	}
	tree := n.minHopTree()
	for k, e := range n.Edges {
		p, ok := tree.PathTo(n.G, e)
		if !ok {
			return fmt.Errorf("topo: edge node %d unreachable from origin %d", e, n.Origin)
		}
		for _, id := range p.Arcs {
			n.G.SetArcCap(id, n.G.Arc(id).Cap+edgeDemand[k])
		}
	}
	return nil
}

// minHopTree runs a shortest-path computation from the origin with every
// arc cost treated as 1.
func (n *Network) minHopTree() graph.ShortestTree {
	unit := n.G.Clone()
	for id := 0; id < unit.NumArcs(); id++ {
		unit.SetArcCost(id, 1)
	}
	tree := graph.TreeOf(unit, n.Origin)
	// Arc IDs coincide between the clone and the original graph, so the
	// tree's parent arcs are valid in n.G.
	return tree
}

// ParseEdgeList reads an undirected topology from lines of the form
//
//	u v [cost] [capacity]
//
// with '#' comments. Node IDs must be dense integers starting at 0. Cost
// must be finite and non-negative and defaults to 1; capacity defaults to
// unlimited. numEdgeNodes low-degree nodes are designated as in Generate.
func ParseEdgeList(r io.Reader, name string, numEdgeNodes int) (*Network, error) {
	type link struct {
		u, v      int
		cost, cap float64
	}
	var links []link
	maxNode := -1
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("topo: line %d: need at least two fields", lineNo)
		}
		u, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, fmt.Errorf("topo: line %d: bad node %q", lineNo, fields[0])
		}
		v, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("topo: line %d: bad node %q", lineNo, fields[1])
		}
		if u < 0 || v < 0 || u == v {
			return nil, fmt.Errorf("topo: line %d: invalid link %d-%d", lineNo, u, v)
		}
		l := link{u: u, v: v, cost: 1, cap: graph.Unlimited}
		if len(fields) >= 3 {
			if l.cost, err = strconv.ParseFloat(fields[2], 64); err != nil {
				return nil, fmt.Errorf("topo: line %d: bad cost %q", lineNo, fields[2])
			}
			// Validate here so malformed input files surface as errors
			// rather than tripping graph.AddArc's programmer-error guard.
			if l.cost < 0 || math.IsNaN(l.cost) || math.IsInf(l.cost, 1) {
				return nil, fmt.Errorf("topo: line %d: cost %v must be finite and non-negative", lineNo, l.cost)
			}
		}
		if len(fields) >= 4 {
			if l.cap, err = strconv.ParseFloat(fields[3], 64); err != nil {
				return nil, fmt.Errorf("topo: line %d: bad capacity %q", lineNo, fields[3])
			}
		}
		if u > maxNode {
			maxNode = u
		}
		if v > maxNode {
			maxNode = v
		}
		links = append(links, l)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("topo: %w", err)
	}
	if len(links) == 0 {
		return nil, fmt.Errorf("topo: empty edge list")
	}
	g := graph.New(maxNode + 1)
	for _, l := range links {
		g.AddEdge(l.u, l.v, l.cost, l.cap)
	}
	if !g.Connected() {
		return nil, fmt.Errorf("topo: parsed topology is not connected")
	}
	net := &Network{Name: name, G: g}
	order := g.NodesByDegree()
	net.Origin = order[0]
	for _, v := range order[1:] {
		if len(net.Edges) >= numEdgeNodes {
			break
		}
		net.Edges = append(net.Edges, v)
	}
	net.IndexRoles()
	return net, nil
}
