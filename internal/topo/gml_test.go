package topo

import (
	"strings"
	"testing"
)

const sampleGML = `
graph [
  label "toy"
  node [
    id 0
    label "NYC"
    Longitude -74.0
  ]
  node [
    id 2
    label "CHI"
  ]
  node [
    id 5
    label "SEA"
  ]
  node [
    id 7
    label "LAX"
  ]
  edge [
    source 0
    target 2
    LinkSpeed "1.0"
  ]
  edge [
    source 2
    target 5
  ]
  edge [
    source 5
    target 0
  ]
  edge [
    source 0
    target 5
  ]
  edge [
    source 7
    target 5
  ]
  edge [
    source 7
    target 7
  ]
]
`

func TestParseGML(t *testing.T) {
	n, err := ParseGML(strings.NewReader(sampleGML), "toy", 2)
	if err != nil {
		t.Fatal(err)
	}
	if n.G.NumNodes() != 4 {
		t.Errorf("nodes = %d, want 4", n.G.NumNodes())
	}
	// 4 distinct undirected links (reverse listing 0-5 of link 5-0
	// collapsed, self-loop 7-7 dropped) -> 8 arcs.
	if n.G.NumArcs() != 8 {
		t.Errorf("arcs = %d, want 8", n.G.NumArcs())
	}
	if !n.G.Connected() {
		t.Error("parsed graph disconnected")
	}
	// Node with GML id 7 (dense 3) has degree 1 -> origin.
	if got := n.G.UndirectedDegree(n.Origin); got != 1 {
		t.Errorf("origin degree = %d, want 1", got)
	}
	if len(n.Edges) != 2 {
		t.Errorf("edge nodes = %d, want 2", len(n.Edges))
	}
}

func TestParseGMLErrors(t *testing.T) {
	cases := []struct {
		name    string
		src     string
		wantErr string
	}{
		{"empty", "", "no nodes"},
		{"no nodes", "graph [ edge [ source 0 target 1 ] ]", "no nodes"},
		{"bad edge", "graph [ node [ id 0 ] node [ id 1 ] edge [ source 0 ] ]", "missing source/target"},
		{"unknown node", "graph [ node [ id 0 ] node [ id 1 ] edge [ source 0 target 9 ] ]", "unknown node"},
		{"disconnected", "graph [ node [ id 0 ] node [ id 1 ] node [ id 2 ] node [ id 3 ] edge [ source 0 target 1 ] edge [ source 2 target 3 ] ]", "not connected"},
		{"unbalanced", "graph [ node [ id 0 ] ] ]", "unbalanced"},
		{"negative weight", "graph [ node [ id 0 ] node [ id 1 ] edge [ source 0 target 1 weight -2 ] ]", "negative"},
		{"negative value", "graph [ node [ id 0 ] node [ id 1 ] edge [ source 0 target 1 value -0.5 ] ]", "negative"},
		{"NaN weight", "graph [ node [ id 0 ] node [ id 1 ] edge [ source 0 target 1 weight NaN ] ]", "NaN"},
		{"inf weight", "graph [ node [ id 0 ] node [ id 1 ] edge [ source 0 target 1 weight inf ] ]", "finite"},
		{"+Inf value", "graph [ node [ id 0 ] node [ id 1 ] edge [ source 0 target 1 value +Inf ] ]", "finite"},
		{"non-numeric weight", "graph [ node [ id 0 ] node [ id 1 ] edge [ source 0 target 1 weight fast ] ]", "not a number"},
		{"duplicate directed edge", "graph [ node [ id 0 ] node [ id 1 ] edge [ source 0 target 1 ] edge [ source 0 target 1 ] ]", "duplicate directed edge"},
		{"duplicate directed self-loop", "graph [ node [ id 0 ] node [ id 1 ] edge [ source 0 target 1 ] edge [ source 1 target 1 ] edge [ source 1 target 1 ] ]", "duplicate directed edge"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseGML(strings.NewReader(tc.src), "x", 1)
			if err == nil {
				t.Fatal("expected error")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error = %q, want it to mention %q", err, tc.wantErr)
			}
		})
	}
}

func TestParseGMLWeights(t *testing.T) {
	// weight/value keys become arc costs; edges without one default to 1,
	// and a reverse listing keeps the first direction's weight.
	const src = `graph [
	  node [ id 0 ] node [ id 1 ] node [ id 2 ]
	  edge [ source 0 target 1 weight 2.5 ]
	  edge [ source 1 target 2 value 4 ]
	  edge [ source 2 target 1 weight 9 ]
	  edge [ source 2 target 0 ]
	]`
	n, err := ParseGML(strings.NewReader(src), "weighted", 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := n.G.NumArcs(); got != 6 {
		t.Fatalf("arcs = %d, want 6", got)
	}
	wantCost := map[[2]int]float64{
		{0, 1}: 2.5, {1, 0}: 2.5,
		{1, 2}: 4, {2, 1}: 4,
		{2, 0}: 1, {0, 2}: 1,
	}
	for id := 0; id < n.G.NumArcs(); id++ {
		a := n.G.Arc(id)
		if want := wantCost[[2]int{a.From, a.To}]; a.Cost != want {
			t.Errorf("arc %d->%d cost = %v, want %v", a.From, a.To, a.Cost, want)
		}
	}
}

func TestParseGMLRoundTripWithCosts(t *testing.T) {
	// Parsed networks integrate with the cost/capacity helpers.
	n, err := ParseGML(strings.NewReader(sampleGML), "toy", 1)
	if err != nil {
		t.Fatal(err)
	}
	n.SetUniformCapacity(5)
	for id := 0; id < n.G.NumArcs(); id++ {
		if n.G.Arc(id).Cap != 5 {
			t.Fatalf("capacity helper failed on parsed graph")
		}
	}
}
