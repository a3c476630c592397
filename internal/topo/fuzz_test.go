package topo

import (
	"math"
	"strings"
	"testing"
)

// checkLoaded is the contract both loaders owe an accepted input: a
// connected network whose links have finite, non-negative costs and
// non-negative capacities, with an origin among its nodes.
func checkLoaded(t *testing.T, net *Network) {
	t.Helper()
	g := net.G
	if !g.Connected() {
		t.Fatal("accepted a disconnected network")
	}
	for id := 0; id < g.NumArcs(); id++ {
		a := g.Arc(id)
		if a.Cost < 0 || math.IsNaN(a.Cost) || math.IsInf(a.Cost, 0) {
			t.Fatalf("arc %d: accepted cost %v", id, a.Cost)
		}
		if a.Cap < 0 || math.IsNaN(a.Cap) {
			t.Fatalf("arc %d: accepted capacity %v", id, a.Cap)
		}
	}
	if net.Origin < 0 || net.Origin >= g.NumNodes() {
		t.Fatalf("origin %d outside %d nodes", net.Origin, g.NumNodes())
	}
}

// FuzzParseEdgeList feeds arbitrary text to the edge-list loader: it must
// never panic, and every network it accepts must pass checkLoaded. Node
// IDs are bounded by the number of links, so no input sizes the graph
// beyond its own length.
func FuzzParseEdgeList(f *testing.F) {
	for _, seed := range []string{
		"# tiny triangle plus a stub\n0 1 2.5 100\n1 2 3.0\n0 2\n2 3 1 50\n",
		"0 1 1 NaN",
		"0 1 1 -5",
		"0 1 NaN",
		"0 1 +Inf",
		"0 1000000",
		"0 9223372036854775807",
		"0 1\n2 3",
		"1 0 0 0\n",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		net, err := ParseEdgeList(strings.NewReader(src), "fuzz", 2)
		if err != nil {
			return
		}
		checkLoaded(t, net)
	})
}

// FuzzParseGML feeds arbitrary text to the GML loader: it must never
// panic, and every network it accepts must pass checkLoaded.
func FuzzParseGML(f *testing.F) {
	for _, seed := range []string{
		sampleGML,
		"graph [ node [ id 0 ] node [ id 1 ] edge [ source 0 target 1 weight 2.5 ] ]",
		"graph [ node [ id 0 ] node [ id 1 ] edge [ source 0 target 1 weight NaN ] ]",
		"graph [ node [ id 0 ] node [ id 1 ] edge [ source 0 target 1 value -0.5 ] ]",
		"graph [ node [ id 0 ] ] ]",
		"graph [ node [ id 9223372036854775807 ] node [ id -3 ] edge [ source -3 target 9223372036854775807 ] ]",
		"node [ id 0 ] edge [ source 0 target 0 ]",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		net, err := ParseGML(strings.NewReader(src), "fuzz", 2)
		if err != nil {
			return
		}
		checkLoaded(t, net)
	})
}
