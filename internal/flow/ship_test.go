package flow

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"jcr/internal/graph"
)

// The plain successive-shortest-paths solver that ship's tree phase and the
// source-pruned residual network replaced, kept verbatim as the oracle:
// newResNetSSP builds the residual network of every arc of g, shipSSP runs
// one Dijkstra per augmentation, and extractSSP reads the flow back by pair
// index.

func newResNetSSP(g *graph.Graph, capOf func(graph.ArcID) float64, sinks []Demand) *resNet {
	n := g.NumNodes()
	m := g.NumArcs()
	if sinks != nil {
		n++
	}
	ra := 2 * (m + len(sinks))
	r := resNetPool.Get().(*resNet)
	r.n = n
	r.head = resize(r.head, n)
	r.next = resize(r.next, ra)[:0]
	r.to = resize(r.to, ra)[:0]
	r.cap = resize(r.cap, ra)[:0]
	r.cost = resize(r.cost, ra)[:0]
	r.orig = resize(r.orig, ra)[:0]
	for v := range r.head {
		r.head[v] = -1
	}
	for id := 0; id < m; id++ {
		a := g.Arc(id)
		c := a.Cap
		if capOf != nil {
			c = capOf(id)
		}
		r.addPair(a.From, a.To, c, a.Cost, id)
	}
	for j, d := range sinks {
		r.addPair(d.Node, n-1, d.Amount, 0, m+j)
	}
	return r
}

func (r *resNet) shipSSP(ctx context.Context, src, dst int, value float64) error {
	r.pot = resize(r.pot, r.n)
	pot := r.pot
	clear(pot)
	remaining := value
	// Relative tolerance: float dust at ~1e6 request-rate scale must not
	// read as unroutable demand.
	tol := eps
	if !math.IsInf(value, 1) {
		tol = eps * (1 + value)
	}
	for remaining > tol {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("flow: canceled with %.6g units unshipped: %w", remaining, err)
			}
		}
		dist, parent := r.dijkstra(src, pot)
		if math.IsInf(dist[dst], 1) {
			if math.IsInf(value, 1) {
				break // max flow reached
			}
			return fmt.Errorf("%w: %.6g units unroutable from %d to %d",
				ErrInsufficientCapacity, remaining, src, dst)
		}
		for v := 0; v < r.n; v++ {
			if !math.IsInf(dist[v], 1) {
				pot[v] += dist[v]
			}
		}
		// Bottleneck along the shortest path.
		bottleneck := remaining
		for v := dst; v != src; {
			a := parent[v]
			if r.cap[a] < bottleneck {
				bottleneck = r.cap[a]
			}
			v = r.to[a^1]
		}
		if math.IsInf(bottleneck, 1) {
			// Entire path uncapacitated; ship everything left.
			bottleneck = remaining
		}
		for v := dst; v != src; {
			a := parent[v]
			r.cap[a] -= bottleneck
			r.cap[a^1] += bottleneck
			v = r.to[a^1]
		}
		remaining -= bottleneck
	}
	return nil
}

func (r *resNet) extractSSP(g *graph.Graph, src graph.NodeID) *Result {
	res := &Result{Arc: make([]float64, g.NumArcs())}
	for k := 0; k < 2*g.NumArcs(); k += 2 {
		// Flow on the original arc equals the residual capacity of the
		// backward arc.
		f := r.cap[k+1]
		if f < eps {
			continue
		}
		id := r.orig[k]
		res.Arc[id] += f
		res.Cost += f * g.Arc(id).Cost
	}
	res.Value = NetOutflow(g, res.Arc, src)
	return res
}

// sspToSinks is MinCostFlowToSinks on the oracle; it also returns the cost.
func sspToSinks(g *graph.Graph, src graph.NodeID, sinks []Demand) ([]float64, float64, error) {
	r := newResNetSSP(g, nil, sinks)
	defer resNetPool.Put(r)
	var total float64
	for _, d := range sinks {
		total += d.Amount
	}
	if err := r.shipSSP(nil, src, r.n-1, total); err != nil {
		return nil, 0, err
	}
	res := r.extractSSP(g, src)
	return res.Arc, res.Cost, nil
}

// sspMinCostFlow is MinCostFlow on the oracle.
func sspMinCostFlow(g *graph.Graph, src, dst graph.NodeID, value float64) (*Result, error) {
	r := newResNetSSP(g, nil, nil)
	defer resNetPool.Put(r)
	if err := r.shipSSP(nil, src, dst, value); err != nil {
		return nil, err
	}
	return r.extractSSP(g, src), nil
}

// Tolerances of the differential checks.
const (
	// costRelTol bounds the relative cost gap between two min-cost flows
	// that may differ on tied paths.
	costRelTol = 1e-9
	// conserveTol bounds the conservation and capacity residue of a flow.
	conserveTol = 1e-7
)

// Byte layout of an encoded instance; decodeInstance sanitizes whatever a
// fuzzer puts in the float fields.
const (
	maxInstNodes = 12
	maxInstSinks = 8
	maxInstArcs  = 60
	sinkRecLen   = 1 + 8
	arcRecLen    = 2 + 8 + 8
)

type instArc struct {
	from, to  int
	cost, cap float64
}

// flowInstance is a multi-sink min-cost flow instance of at most
// maxInstNodes nodes.
type flowInstance struct {
	n, src int
	sinks  []Demand
	arcs   []instArc
}

func (in flowInstance) graph() *graph.Graph {
	g := graph.New(in.n)
	for _, a := range in.arcs {
		g.AddArc(a.from, a.to, a.cost, a.cap)
	}
	return g
}

// randomInstance draws an instance. Some nodes only have out-arcs, like the
// other items' virtual sources of the auxiliary graph, and src is
// sometimes one of them. With continuous set, costs, capacities and
// amounts are drawn from intervals, so distinct paths have distinct
// lengths; otherwise they are small integers and ties abound. Capacities
// are tight enough that some instances cannot carry their demand.
func randomInstance(rng *rand.Rand, continuous bool) flowInstance {
	n := 2 + rng.Intn(maxInstNodes-1)
	in := flowInstance{n: n}
	sourceOnly := make([]bool, n)
	for k := rng.Intn(3); k > 0; k-- {
		sourceOnly[rng.Intn(n)] = true
	}
	in.src = rng.Intn(n)
	num := func(lo, span float64, ints int) float64 {
		if continuous {
			return lo + span*rng.Float64()
		}
		return float64(rng.Intn(ints))
	}
	arc := func(u, v int) {
		c := math.Inf(1)
		if rng.Intn(5) > 0 {
			c = num(0.2, 4, 5)
		}
		in.arcs = append(in.arcs, instArc{u, v, num(0, 10, 5), c})
	}
	// A ring through the nodes that take in-arcs keeps most of the graph
	// reachable; random chords add alternative routes.
	prev := in.src
	for v := 0; v < n; v++ {
		if !sourceOnly[v] && v != prev {
			arc(prev, v)
			prev = v
		}
	}
	for e := n + rng.Intn(2*n); e > 0 && len(in.arcs) < maxInstArcs; e-- {
		if u, v := rng.Intn(n), rng.Intn(n); !sourceOnly[v] {
			arc(u, v)
		}
	}
	for k := 1 + rng.Intn(maxInstSinks); k > 0; k-- {
		in.sinks = append(in.sinks, Demand{Node: rng.Intn(n), Amount: num(0.1, 2, 3)})
	}
	return in
}

func (in flowInstance) encode() []byte {
	b := []byte{byte(in.n - 2), byte(in.src), byte(len(in.sinks) - 1)}
	for _, d := range in.sinks {
		b = append(b, byte(d.Node))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(d.Amount))
	}
	for _, a := range in.arcs {
		b = append(b, byte(a.from), byte(a.to))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(a.cost))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(a.cap))
	}
	return b
}

// decodeInstance inverts encode on every instance randomInstance draws and
// maps any other bytes to some valid instance: costs into [0, 1000),
// capacities to nonnegative values (above 1000 reads as unlimited) and
// amounts into [0, 100). ok is false when the bytes do not hold a sink.
func decodeInstance(b []byte) (in flowInstance, ok bool) {
	if len(b) < 3+sinkRecLen {
		return in, false
	}
	f := func(p []byte) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(p)) }
	in.n = 2 + int(b[0])%(maxInstNodes-1)
	in.src = int(b[1]) % in.n
	ns := 1 + int(b[2])%maxInstSinks
	b = b[3:]
	for ; ns > 0 && len(b) >= sinkRecLen; ns-- {
		amt := math.Mod(math.Abs(f(b[1:])), 100)
		if math.IsNaN(amt) {
			amt = 0
		}
		in.sinks = append(in.sinks, Demand{Node: int(b[0]) % in.n, Amount: amt})
		b = b[sinkRecLen:]
	}
	for len(b) >= arcRecLen && len(in.arcs) < maxInstArcs {
		cost := math.Mod(math.Abs(f(b[2:])), 1000)
		if math.IsNaN(cost) {
			cost = 0
		}
		c := math.Abs(f(b[10:]))
		switch {
		case math.IsNaN(c):
			c = 0
		case c > 1000:
			c = math.Inf(1)
		}
		in.arcs = append(in.arcs, instArc{int(b[0]) % in.n, int(b[1]) % in.n, cost, c})
		b = b[arcRecLen:]
	}
	return in, true
}

// checkToSinks solves in with MinCostFlowToSinks and with the oracle and
// checks that they agree: the same verdict, costs within costRelTol, and
// a flow that respects capacities and delivers every sink's amount. It
// returns both flows.
func checkToSinks(in flowInstance) (got, want []float64, err error) {
	g := in.graph()
	got, gotErr := MinCostFlowToSinks(nil, g, nil, in.src, in.sinks)
	want, wantCost, wantErr := sspToSinks(g, in.src, in.sinks)
	if (gotErr == nil) != (wantErr == nil) {
		return nil, nil, fmt.Errorf("verdicts differ: got %v, oracle %v", gotErr, wantErr)
	}
	if gotErr != nil {
		if !errors.Is(gotErr, ErrInsufficientCapacity) {
			return nil, nil, fmt.Errorf("unexpected error %v", gotErr)
		}
		return nil, nil, nil
	}
	if c := Cost(g, got); math.Abs(c-wantCost) > costRelTol*(1+math.Abs(wantCost)) {
		return nil, nil, fmt.Errorf("cost %v, oracle %v", c, wantCost)
	}
	need := make([]float64, in.n)
	var total float64
	for _, d := range in.sinks {
		need[d.Node] += d.Amount
		total += d.Amount
	}
	for v := 0; v < in.n; v++ {
		// Net inflow at v is its demand; the source's includes the total
		// it sends.
		net := -NetOutflow(g, got, v)
		if v == in.src {
			net += total
		}
		if math.Abs(net-need[v]) > conserveTol*(1+total) {
			return nil, nil, fmt.Errorf("node %d receives %v, wants %v", v, net, need[v])
		}
	}
	for id, fl := range got {
		if fl < 0 || fl > g.Arc(id).Cap+conserveTol {
			return nil, nil, fmt.Errorf("arc %d carries %v of capacity %v", id, fl, g.Arc(id).Cap)
		}
	}
	return got, want, nil
}

// TestShipMatchesSSP is the differential test of ship's tree phase and the
// source-pruned residual network against the plain successive shortest
// paths: over random multi-sink instances both report the same verdict and
// costs within costRelTol, and on continuous-valued instances the arc flows
// are identical bit for bit. Single-sink MinCostFlow calls, whose sink is a
// node with arcs of its own, are held to the same verdict, cost and
// bit-identity rules.
func TestShipMatchesSSP(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	const trials = 12000
	verdicts := [2]int{}
	for trial := 0; trial < trials; trial++ {
		continuous := trial%4 != 0
		in := randomInstance(rng, continuous)
		got, want, err := checkToSinks(in)
		if err != nil {
			t.Fatalf("trial %d (continuous %v): %v", trial, continuous, err)
		}
		if got == nil {
			verdicts[0]++
		} else {
			verdicts[1]++
			if continuous && !bitsEqual(got, want) {
				t.Fatalf("trial %d: flow %v, oracle %v", trial, got, want)
			}
		}

		g := in.graph()
		dst := rng.Intn(in.n)
		value := in.sinks[0].Amount
		gotRes, gotErr := MinCostFlow(nil, g, in.src, dst, value)
		var wantRes *Result
		var wantErr error
		if in.src == dst {
			wantRes = &Result{Arc: make([]float64, g.NumArcs())}
		} else {
			wantRes, wantErr = sspMinCostFlow(g, in.src, dst, value)
		}
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("trial %d: MinCostFlow verdicts differ: got %v, oracle %v", trial, gotErr, wantErr)
		}
		if gotErr != nil {
			continue
		}
		if math.Abs(gotRes.Cost-wantRes.Cost) > costRelTol*(1+math.Abs(wantRes.Cost)) {
			t.Fatalf("trial %d: MinCostFlow cost %v, oracle %v", trial, gotRes.Cost, wantRes.Cost)
		}
		if continuous && !bitsEqual(gotRes.Arc, wantRes.Arc) {
			t.Fatalf("trial %d: MinCostFlow flow %v, oracle %v", trial, gotRes.Arc, wantRes.Arc)
		}
	}
	if verdicts[0] == 0 || verdicts[1] == 0 {
		t.Fatalf("verdicts (insufficient, shipped) = %v: the generator must produce both", verdicts)
	}
}

// TestInstanceEncodingRoundTrips pins decodeInstance as the inverse of
// encode on generated instances, so the fuzz seed corpus replays them.
func TestInstanceEncodingRoundTrips(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		in := randomInstance(rng, trial%2 == 0)
		out, ok := decodeInstance(in.encode())
		if !ok || fmt.Sprint(out) != fmt.Sprint(in) {
			t.Fatalf("trial %d: decoded %v, want %v", trial, out, in)
		}
	}
}

// FuzzMinCostFlowToSinks decodes bytes into an instance of at most
// maxInstNodes nodes and checks MinCostFlowToSinks against the oracle
// (see checkToSinks); neither may panic. The seed corpus is drawn from
// randomInstance.
func FuzzMinCostFlowToSinks(f *testing.F) {
	rng := rand.New(rand.NewSource(8))
	for k := 0; k < 16; k++ {
		f.Add(randomInstance(rng, k%2 == 0).encode())
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		in, ok := decodeInstance(b)
		if !ok {
			return
		}
		if _, _, err := checkToSinks(in); err != nil {
			t.Fatal(err)
		}
	})
}
