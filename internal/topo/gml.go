package topo

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"jcr/internal/graph"
)

// ParseGML reads a topology in the GML dialect used by the Internet
// Topology Zoo (the source of the paper's Table 5 networks: Abvt, Tinet,
// Deltacom), so the generated stand-ins can be replaced with the real
// datasets. Only the structure is consumed: `node [ id N ]` and
// `edge [ source A target B ]` blocks; labels and geography are ignored.
// Node ids may be sparse; they are remapped to dense indices. Self-loops
// are dropped and an edge listed in both directions collapses to one
// undirected link (keeping the first direction's weight), matching how the
// paper counts links; an exact repeat of the same directed edge is a
// malformed file and rejected, as is a negative, infinite, or non-numeric
// edge weight/value — fault scenarios mutate topologies, so bad inputs must
// fail loudly rather than seed a run with garbage. Costs default to 1 when
// no weight/value key is present and capacities to unlimited (assign them
// with AssignCosts / SetUniformCapacity afterwards).
func ParseGML(r io.Reader, name string, numEdgeNodes int) (*Network, error) {
	type edge struct {
		source, target int
		cost           float64
	}
	var edges []edge
	ids := map[int]int{} // GML id -> dense index

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)

	// Tiny tokenizer: GML is whitespace-separated words and brackets.
	var tokens []string
	for sc.Scan() {
		line := sc.Text()
		if i := strings.Index(line, "//"); i >= 0 {
			line = line[:i]
		}
		tokens = append(tokens, strings.Fields(line)...)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("topo: gml: %w", err)
	}

	// skipBlock consumes a balanced [ ... ] starting at position i of an
	// opening bracket, returning the position after the close.
	var parseInt = func(s string) (int, bool) {
		v, err := strconv.Atoi(s)
		return v, err == nil
	}
	i := 0
	depth := 0
	for i < len(tokens) {
		tok := tokens[i]
		switch tok {
		case "[":
			depth++
			i++
		case "]":
			depth--
			if depth < 0 {
				return nil, fmt.Errorf("topo: gml: unbalanced brackets")
			}
			i++
		case "node":
			// Expect: node [ ... id N ... ]
			j := i + 1
			if j >= len(tokens) || tokens[j] != "[" {
				return nil, fmt.Errorf("topo: gml: node without block at token %d", i)
			}
			id := -1 << 30
			d := 0
			for ; j < len(tokens); j++ {
				switch tokens[j] {
				case "[":
					d++
				case "]":
					d--
				case "id":
					if d == 1 && j+1 < len(tokens) {
						if v, ok := parseInt(tokens[j+1]); ok {
							id = v
						}
					}
				}
				if d == 0 && j > i+1 {
					break
				}
			}
			if id == -1<<30 {
				return nil, fmt.Errorf("topo: gml: node block without id")
			}
			if _, dup := ids[id]; !dup {
				ids[id] = len(ids)
			}
			i = j + 1
		case "edge":
			j := i + 1
			if j >= len(tokens) || tokens[j] != "[" {
				return nil, fmt.Errorf("topo: gml: edge without block at token %d", i)
			}
			src, dst := -1<<30, -1<<30
			cost := 1.0
			d := 0
			for ; j < len(tokens); j++ {
				switch tokens[j] {
				case "[":
					d++
				case "]":
					d--
				case "source":
					if d == 1 && j+1 < len(tokens) {
						if v, ok := parseInt(tokens[j+1]); ok {
							src = v
						}
					}
				case "target":
					if d == 1 && j+1 < len(tokens) {
						if v, ok := parseInt(tokens[j+1]); ok {
							dst = v
						}
					}
				case "weight", "value":
					if d == 1 && j+1 < len(tokens) {
						w, err := strconv.ParseFloat(tokens[j+1], 64)
						if err != nil {
							return nil, fmt.Errorf("topo: gml: edge %s %q is not a number", tokens[j], tokens[j+1])
						}
						if w < 0 || math.IsNaN(w) || math.IsInf(w, 1) {
							return nil, fmt.Errorf("topo: gml: edge %s %v must be finite and non-negative", tokens[j], w)
						}
						cost = w
					}
				}
				if d == 0 && j > i+1 {
					break
				}
			}
			if src == -1<<30 || dst == -1<<30 {
				return nil, fmt.Errorf("topo: gml: edge block missing source/target")
			}
			edges = append(edges, edge{source: src, target: dst, cost: cost})
			i = j + 1
		default:
			i++
		}
	}
	if len(ids) == 0 {
		return nil, fmt.Errorf("topo: gml: no nodes found")
	}
	g := graph.New(len(ids))
	seen := map[[2]int]bool{}
	seenDirected := map[[2]int]bool{}
	for _, e := range edges {
		u, okU := ids[e.source]
		v, okV := ids[e.target]
		if !okU || !okV {
			return nil, fmt.Errorf("topo: gml: edge references unknown node %d-%d", e.source, e.target)
		}
		if seenDirected[[2]int{e.source, e.target}] {
			return nil, fmt.Errorf("topo: gml: duplicate directed edge %d -> %d", e.source, e.target)
		}
		seenDirected[[2]int{e.source, e.target}] = true
		if u == v {
			continue // self-loop
		}
		a, b := u, v
		if a > b {
			a, b = b, a
		}
		if seen[[2]int{a, b}] {
			continue // reverse listing of an already-added undirected link
		}
		seen[[2]int{a, b}] = true
		g.AddEdge(u, v, e.cost, graph.Unlimited)
	}
	if !g.Connected() {
		return nil, fmt.Errorf("topo: gml: topology is not connected")
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
