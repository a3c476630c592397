package faults

import (
	"math"
	"reflect"
	"testing"

	"jcr/internal/graph"
	"jcr/internal/placement"
)

// line4 builds the 4-node path 0-1-2-3 with per-direction asymmetric
// capacities (as AugmentFeasibility leaves them) and a spec pair sharing
// the graph, mirroring the simulator's MakeRun convention.
func line4(t *testing.T) (*placement.Spec, *placement.Spec) {
	t.Helper()
	g := graph.New(4)
	uv, _ := g.AddEdge(0, 1, 1, 10)
	g.AddEdge(1, 2, 2, 10)
	g.AddEdge(2, 3, 3, 10)
	g.SetArcCap(uv, 25) // asymmetric: forward 25, reverse 10
	mk := func() *placement.Spec {
		return &placement.Spec{
			G:        g,
			NumItems: 2,
			CacheCap: []float64{0, 1, 1, 0},
			Pinned:   []graph.NodeID{0},
			Rates:    [][]float64{{0, 0, 2, 4}, {0, 0, 1, 1}},
		}
	}
	dec, tr := mk(), mk()
	tr.Rates = [][]float64{{0, 0, 3, 5}, {0, 0, 1, 2}}
	return dec, tr
}

func TestFaultLinksPairing(t *testing.T) {
	dec, _ := line4(t)
	links, err := Links(dec.G)
	if err != nil {
		t.Fatal(err)
	}
	want := []Link{
		{U: 0, V: 1, Fwd: 0, Rev: 1},
		{U: 1, V: 2, Fwd: 2, Rev: 3},
		{U: 2, V: 3, Fwd: 4, Rev: 5},
	}
	if !reflect.DeepEqual(links, want) {
		t.Errorf("Links = %+v, want %+v", links, want)
	}

	odd := graph.New(2)
	odd.AddArc(0, 1, 1, 1)
	if _, err := Links(odd); err == nil {
		t.Error("odd arc count accepted")
	}

	unpaired := graph.New(3)
	unpaired.AddArc(0, 1, 1, 1)
	unpaired.AddArc(2, 0, 1, 1) // not the reverse of arc 0
	if _, err := Links(unpaired); err == nil {
		t.Error("non-reverse arc pair accepted")
	}
}

func TestFaultApplyFaultFreeIdentity(t *testing.T) {
	dec, tr := line4(t)
	sc := &Scenario{Name: "later", Events: []Event{{Kind: LinkDown, Start: 5, Duration: 2, Link: 0}}}
	d2, t2, cond, err := sc.Apply(0, dec, tr)
	if err != nil {
		t.Fatal(err)
	}
	if d2 != dec || t2 != tr {
		t.Error("fault-free hour rewrote the specs (pointers differ)")
	}
	if cond.Faulty() {
		t.Errorf("fault-free condition reports faults: %+v", cond)
	}
	// A nil scenario behaves the same.
	var nilSc *Scenario
	if d3, _, _, err := nilSc.Apply(0, dec, tr); err != nil || d3 != dec {
		t.Errorf("nil scenario not an identity: %v", err)
	}
}

func TestFaultApplyLinkDown(t *testing.T) {
	dec, tr := line4(t)
	sc := &Scenario{Events: []Event{{Kind: LinkDown, Start: 0, Duration: 1, Link: 1}}}
	d2, t2, cond, err := sc.Apply(0, dec, tr)
	if err != nil {
		t.Fatal(err)
	}
	if d2.G != t2.G {
		t.Error("degraded specs do not share one graph")
	}
	if got := d2.G.NumArcs(); got != 4 {
		t.Errorf("degraded graph has %d arcs, want 4 (one link removed)", got)
	}
	if !reflect.DeepEqual(cond.LinksDown, []int{1}) {
		t.Errorf("LinksDown = %v, want [1]", cond.LinksDown)
	}
	// Link 1-2 gone: nodes {0,1} and {2,3} are disconnected.
	dist := graph.AllPairs(d2.G)
	if !math.IsInf(dist[0][3], 1) {
		t.Errorf("dist 0->3 = %v on a cut network, want +Inf", dist[0][3])
	}
	// Surviving links keep their per-direction asymmetric capacities.
	links, err := Links(d2.G)
	if err != nil {
		t.Fatalf("degraded graph lost the pairing convention: %v", err)
	}
	if f := d2.G.Arc(links[0].Fwd); f.Cap != 25 || f.Cost != 1 {
		t.Errorf("surviving forward arc = %+v, want cap 25 cost 1", f)
	}
	if r := d2.G.Arc(links[0].Rev); r.Cap != 10 {
		t.Errorf("surviving reverse arc cap = %v, want 10", r.Cap)
	}
	// Inputs untouched.
	if dec.G.NumArcs() != 6 {
		t.Error("Apply mutated the input graph")
	}
}

func TestFaultApplyDegradeAndComposition(t *testing.T) {
	dec, tr := line4(t)
	sc := &Scenario{Events: []Event{
		{Kind: LinkDegrade, Start: 0, Duration: 1, Link: 0, Factor: 0.5},
		{Kind: LinkDegrade, Start: 0, Duration: 1, Link: 0, Factor: 0.5}, // composes to 0.25
	}}
	d2, _, cond, err := sc.Apply(0, dec, tr)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cond.LinksDegraded, []int{0}) {
		t.Errorf("LinksDegraded = %v, want [0]", cond.LinksDegraded)
	}
	links, _ := Links(d2.G)
	if f := d2.G.Arc(links[0].Fwd); f.Cap != 25*0.25 {
		t.Errorf("degraded forward cap = %v, want %v", f.Cap, 25*0.25)
	}
	if r := d2.G.Arc(links[0].Rev); r.Cap != 10*0.25 {
		t.Errorf("degraded reverse cap = %v, want %v", r.Cap, 10*0.25)
	}
	// Invalid factors are rejected.
	for _, f := range []float64{0, 1, -0.5, 1.5, math.NaN()} {
		bad := &Scenario{Events: []Event{{Kind: LinkDegrade, Start: 0, Duration: 1, Link: 0, Factor: f}}}
		if _, _, _, err := bad.Apply(0, dec, tr); err == nil {
			t.Errorf("degrade factor %v accepted", f)
		}
	}
}

func TestFaultApplyCacheDown(t *testing.T) {
	dec, tr := line4(t)
	sc := CacheFailure(2, 0, 3)
	d2, t2, cond, err := sc.Apply(1, dec, tr)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cond.CachesDown, []graph.NodeID{2}) {
		t.Errorf("CachesDown = %v, want [2]", cond.CachesDown)
	}
	if d2.CacheCap[2] != 0 || t2.CacheCap[2] != 0 {
		t.Errorf("failed cache keeps capacity: dec %v truth %v", d2.CacheCap[2], t2.CacheCap[2])
	}
	if &d2.CacheCap[0] != &t2.CacheCap[0] {
		t.Error("degraded specs do not share one CacheCap slice")
	}
	if dec.CacheCap[2] != 1 {
		t.Error("Apply mutated the input CacheCap")
	}
	// Content loss: a placement carrying the failed cache's content is
	// evicted down to the degraded capacities.
	pl := dec.NewPlacement()
	pl.Stores[2][0] = true
	if n := d2.EvictToFit(pl); n != 1 || pl.Stores[2][0] {
		t.Errorf("EvictToFit on degraded spec evicted %d, stores[2][0]=%v", n, pl.Stores[2][0])
	}
	// The pinned origin cannot fail.
	if _, _, _, err := CacheFailure(0, 0, 1).Apply(0, dec, tr); err == nil {
		t.Error("pinned-node failure accepted")
	}
}

func TestFaultApplySurge(t *testing.T) {
	dec, tr := line4(t)
	sc := Merge("double", Surge(0, 2, 0, 1), Surge(-1, 3, 0, 1))
	d2, t2, cond, err := sc.Apply(0, dec, tr)
	if err != nil {
		t.Fatal(err)
	}
	if !cond.Surged {
		t.Error("condition does not report the surge")
	}
	// Item 0: catalog x3 times item x2 = x6; item 1: x3 only.
	if got := t2.Rates[0][3]; got != 5*6 {
		t.Errorf("surged truth rate[0][3] = %v, want %v", got, 5*6)
	}
	if got := t2.Rates[1][3]; got != 2*3 {
		t.Errorf("surged truth rate[1][3] = %v, want %v", got, 2*3)
	}
	// Decision demand is untouched: the surge is unanticipated.
	if !reflect.DeepEqual(d2.Rates, dec.Rates) {
		t.Error("surge leaked into the decision rates")
	}
	if tr.Rates[0][3] != 5 {
		t.Error("Apply mutated the input truth rates")
	}
	if _, _, _, err := Surge(0, -1, 0, 1).Apply(0, dec, tr); err == nil {
		t.Error("negative surge factor accepted")
	}
	if _, _, _, err := Surge(99, 2, 0, 1).Apply(0, dec, tr); err == nil {
		t.Error("out-of-range surged item accepted")
	}
}

func TestFaultRandomLinkFaultsDeterministic(t *testing.T) {
	dec, _ := line4(t)
	a, err := RandomLinkFaults(dec.G, 200, 10, 3, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RandomLinkFaults(dec.G, 200, 10, 3, 42)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Events, b.Events) {
		t.Error("same seed produced different scenarios")
	}
	if len(a.Events) == 0 {
		t.Fatal("mtbf 10 over 200 hours produced no outages")
	}
	c, err := RandomLinkFaults(dec.G, 200, 10, 3, 43)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Events, c.Events) {
		t.Error("different seeds produced identical scenarios")
	}
	for _, e := range a.Events {
		if e.Kind != LinkDown || e.Duration < 1 || e.Start < 0 || e.Start+e.Duration > 200 {
			t.Fatalf("malformed event %+v", e)
		}
	}
	// Parameter validation.
	if _, err := RandomLinkFaults(dec.G, 0, 10, 3, 1); err == nil {
		t.Error("zero horizon accepted")
	}
	if _, err := RandomLinkFaults(dec.G, 10, 0.5, 3, 1); err == nil {
		t.Error("sub-hour mtbf accepted")
	}
	if _, err := RandomLinkFaults(dec.G, 10, 10, 0.5, 1); err == nil {
		t.Error("sub-hour mttr accepted")
	}
}

func TestFaultMergeAndActiveAt(t *testing.T) {
	a := CacheFailure(1, 2, 2)
	b := Surge(0, 2, 3, 1)
	m := Merge("combo", a, nil, b)
	if len(m.Events) != 2 {
		t.Fatalf("merged %d events, want 2", len(m.Events))
	}
	if got := len(m.ActiveAt(2)); got != 1 {
		t.Errorf("hour 2 has %d active events, want 1", got)
	}
	if got := len(m.ActiveAt(3)); got != 2 {
		t.Errorf("hour 3 has %d active events, want 2", got)
	}
	if got := len(m.ActiveAt(4)); got != 0 {
		t.Errorf("hour 4 has %d active events, want 0", got)
	}
}

func TestFaultControlPlaneOutageWindows(t *testing.T) {
	sc := ControlPlaneOutage(2, 3)
	for hour, want := range map[int]bool{0: false, 1: false, 2: true, 4: true, 5: false} {
		if got := sc.ControlPlaneDownAt(hour); got != want {
			t.Fatalf("hour %d: down=%v, want %v", hour, got, want)
		}
		if sc.CorruptPushAt(hour) {
			t.Fatalf("hour %d: an outage scenario corrupts no pushes", hour)
		}
	}
	var nilSc *Scenario
	if nilSc.ControlPlaneDownAt(0) || nilSc.CorruptPushAt(0) {
		t.Fatal("nil scenario reports faults")
	}
}

func TestFaultCorruptedPushWindows(t *testing.T) {
	sc := CorruptedPush(1, 2)
	for hour, want := range map[int]bool{0: false, 1: true, 2: true, 3: false} {
		if got := sc.CorruptPushAt(hour); got != want {
			t.Fatalf("hour %d: corrupt=%v, want %v", hour, got, want)
		}
		if sc.ControlPlaneDownAt(hour) {
			t.Fatalf("hour %d: a corruption scenario takes nothing down", hour)
		}
	}
}

// TestFaultApplyCPFaultsRewriteNothing pins that control-plane events are
// flags only: an hour with just CP faults returns the input specs by
// pointer identity, like a fault-free hour, while the condition reports
// the CP state.
func TestFaultApplyCPFaultsRewriteNothing(t *testing.T) {
	dec, tr := line4(t)
	sc := Merge("cp", ControlPlaneOutage(0, 2), CorruptedPush(1, 1))
	d0, t0, cond, err := sc.Apply(0, dec, tr)
	if err != nil {
		t.Fatal(err)
	}
	if d0 != dec || t0 != tr {
		t.Fatal("CP-only hour rewrote the specs")
	}
	if !cond.CPDown || cond.CPCorrupt || !cond.Faulty() {
		t.Fatalf("hour 0 condition %+v", cond)
	}
	_, _, cond, err = sc.Apply(1, dec, tr)
	if err != nil {
		t.Fatal(err)
	}
	if !cond.CPDown || !cond.CPCorrupt {
		t.Fatalf("hour 1 condition %+v", cond)
	}
	// CP faults compose with spec-rewriting faults: the link still drops.
	both := Merge("both", sc, &Scenario{Events: []Event{{Kind: LinkDown, Start: 0, Duration: 1, Link: 0}}})
	d2, _, cond, err := both.Apply(0, dec, tr)
	if err != nil {
		t.Fatal(err)
	}
	if d2 == dec {
		t.Fatal("link fault hour kept the same spec pointer")
	}
	if !cond.CPDown || len(cond.LinksDown) != 1 {
		t.Fatalf("composed condition %+v", cond)
	}
}

func TestFaultKindStringsCoverCPKinds(t *testing.T) {
	if ControlPlaneDown.String() != "control-plane-down" || PushCorrupt.String() != "push-corrupt" {
		t.Fatalf("kind strings %q, %q", ControlPlaneDown.String(), PushCorrupt.String())
	}
}
