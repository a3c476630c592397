// Package faults is a deterministic, seeded fault injector for the online
// operation harness: it applies scripted per-hour fault scenarios — link
// failures and recoveries, link-capacity degradations, cache-node failures
// with content loss, and demand surges — to the hourly decision/truth specs
// the simulator walks, producing the degraded network each hour's
// controller and evaluation actually see. Scenarios are plain data (a list
// of timed events), so a run is bit-reproducible from its seed, and
// builders compose: independently drawn per-link failures (MTBF/MTTR
// chains) and hand-scripted events merge into one scenario.
//
// The package deliberately knows nothing about policies or metrics: it
// rewrites placement.Spec inputs (graph, cache capacities, demand rates)
// and reports what it did in a Condition, leaving detection and degraded
// operation to internal/online.
package faults

import (
	"fmt"
	"math"
	"sort"

	"jcr/internal/graph"
	"jcr/internal/placement"
	"jcr/internal/rng"
)

// Kind enumerates the fault types the injector can apply.
type Kind int

// Fault kinds.
const (
	// LinkDown removes both directions of an undirected link.
	LinkDown Kind = iota + 1
	// LinkDegrade multiplies both directed capacities of a link by
	// Factor (0 < Factor < 1 degrades; capacities stay unlimited if they
	// were unlimited).
	LinkDegrade
	// CacheDown fails a cache node: its capacity drops to zero and its
	// contents are lost (the controller must re-place or evict).
	CacheDown
	// DemandSurge multiplies the realized (truth) demand of one item —
	// or the whole catalog — by Factor, leaving the decision demand
	// untouched: the surge is unanticipated by construction.
	DemandSurge
	// ControlPlaneDown marks hours during which the control plane is
	// dead or unreachable: no replan runs and no plan is pushed, so the
	// data plane keeps serving its last-known-good plan (and fail-safe
	// routes for anything that plan does not cover). The event rewrites
	// no spec; it is consulted via Scenario.ControlPlaneDownAt and
	// reported in Condition.CPDown.
	ControlPlaneDown
	// PushCorrupt marks hours whose control-plane push is corrupted in
	// flight: the plan that reaches the data plane is garbage and must be
	// rejected by validation, keeping the last-known-good plan serving.
	// Like ControlPlaneDown it rewrites no spec; it is consulted via
	// Scenario.CorruptPushAt and reported in Condition.CPCorrupt.
	PushCorrupt
)

func (k Kind) String() string {
	switch k {
	case LinkDown:
		return "link-down"
	case LinkDegrade:
		return "link-degrade"
	case CacheDown:
		return "cache-down"
	case DemandSurge:
		return "demand-surge"
	case ControlPlaneDown:
		return "control-plane-down"
	case PushCorrupt:
		return "push-corrupt"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Event is one scripted fault, active for hours in [Start, Start+Duration).
type Event struct {
	Kind Kind
	// Start is the first active hour; Duration is the number of active
	// hours (at least 1 for the event to ever fire).
	Start, Duration int
	// Link indexes the undirected link (see Links) for LinkDown and
	// LinkDegrade.
	Link int
	// Node is the failed cache for CacheDown.
	Node graph.NodeID
	// Item selects the surged item for DemandSurge; negative means the
	// whole catalog.
	Item int
	// Factor is the capacity multiplier (LinkDegrade) or demand
	// multiplier (DemandSurge).
	Factor float64
}

// ActiveAt reports whether the event is in effect at the given hour.
func (e Event) ActiveAt(hour int) bool {
	return hour >= e.Start && hour < e.Start+e.Duration
}

// Scenario is a named list of scripted fault events.
type Scenario struct {
	Name   string
	Events []Event
}

// ActiveAt returns the events in effect at the given hour. A nil scenario
// has none.
func (sc *Scenario) ActiveAt(hour int) []Event {
	if sc == nil {
		return nil
	}
	var out []Event
	for _, e := range sc.Events {
		if e.ActiveAt(hour) {
			out = append(out, e)
		}
	}
	return out
}

// Merge concatenates scenarios into one under a new name; nil inputs are
// skipped. Events compose per hour inside Apply (capacity factors
// multiply, link-down dominates degrade).
func Merge(name string, scs ...*Scenario) *Scenario {
	out := &Scenario{Name: name}
	for _, sc := range scs {
		if sc != nil {
			out.Events = append(out.Events, sc.Events...)
		}
	}
	return out
}

// Link is one undirected link of a topo-built graph: the arc pair created
// by graph.AddEdge, forward arc 2k and reverse arc 2k+1.
type Link struct {
	U, V     graph.NodeID
	Fwd, Rev graph.ArcID
}

// Links enumerates the undirected links of g, validating the AddEdge
// pairing convention (arcs 2k and 2k+1 are mutual reverses). Graphs built
// any other way are rejected: fault injection addresses links, not lone
// arcs, and a wrong pairing would silently cut the wrong direction.
func Links(g *graph.Graph) ([]Link, error) {
	m := g.NumArcs()
	if m%2 != 0 {
		return nil, fmt.Errorf("faults: graph has %d arcs, not edge-paired", m)
	}
	links := make([]Link, m/2)
	for k := range links {
		f, r := g.Arc(2*k), g.Arc(2*k+1)
		if f.From != r.To || f.To != r.From {
			return nil, fmt.Errorf("faults: arcs %d (%d->%d) and %d (%d->%d) are not an undirected pair",
				2*k, f.From, f.To, 2*k+1, r.From, r.To)
		}
		links[k] = Link{U: f.From, V: f.To, Fwd: graph.ArcID(2 * k), Rev: graph.ArcID(2*k + 1)}
	}
	return links, nil
}

// Condition reports what Apply did for one hour, for degradation-state
// accounting and debugging. Empty slices mean a fault-free hour (the specs
// were returned unchanged).
type Condition struct {
	Hour int
	// LinksDown lists removed undirected link indices, ascending.
	LinksDown []int
	// LinksDegraded lists capacity-degraded link indices, ascending.
	LinksDegraded []int
	// CachesDown lists failed cache nodes, ascending.
	CachesDown []graph.NodeID
	// Surged reports whether any demand surge was in effect.
	Surged bool
	// CPDown reports whether the control plane was down this hour
	// (ControlPlaneDown event): no replan, no push.
	CPDown bool
	// CPCorrupt reports whether this hour's control-plane push is
	// corrupted in flight (PushCorrupt event).
	CPCorrupt bool
}

// Faulty reports whether the hour had any fault in effect.
func (c *Condition) Faulty() bool {
	return len(c.LinksDown) > 0 || len(c.LinksDegraded) > 0 || len(c.CachesDown) > 0 ||
		c.Surged || c.CPDown || c.CPCorrupt
}

// Apply produces the degraded decision and truth specs for one hour. The
// two input specs must share one graph (the simulator's convention); the
// outputs share one rebuilt graph with failed links removed and degraded
// capacities scaled, zeroed cache capacities on failed nodes, and surged
// truth demand. A fault-free hour returns the inputs unchanged (same
// pointers), so an empty scenario is bit-for-bit invisible. Pinned nodes
// (the origin) cannot fail: content there is authoritative, not cached.
func (sc *Scenario) Apply(hour int, decision, truth *placement.Spec) (*placement.Spec, *placement.Spec, *Condition, error) {
	cond := &Condition{Hour: hour}
	active := sc.ActiveAt(hour)
	// Control-plane events rewrite nothing: they are flags for the serving
	// layer (skip the replan, corrupt the push). Split them out so an hour
	// with only CP faults still returns the input specs unchanged — same
	// pointers, like a fault-free hour.
	specEvents := active[:0:0]
	for _, e := range active {
		switch e.Kind {
		case ControlPlaneDown:
			cond.CPDown = true
		case PushCorrupt:
			cond.CPCorrupt = true
		default:
			specEvents = append(specEvents, e)
		}
	}
	active = specEvents
	if len(active) == 0 {
		return decision, truth, cond, nil
	}
	if decision.G != truth.G {
		return nil, nil, nil, fmt.Errorf("faults: decision and truth specs must share a graph")
	}
	if decision.NumItems != truth.NumItems {
		return nil, nil, nil, fmt.Errorf("faults: decision has %d items, truth %d", decision.NumItems, truth.NumItems)
	}
	links, err := Links(decision.G)
	if err != nil {
		return nil, nil, nil, err
	}
	down := map[int]bool{}
	capScale := map[int]float64{}
	cacheDown := map[graph.NodeID]bool{}
	surge := map[int]float64{} // item (or -1 for all) -> factor
	for _, e := range active {
		switch e.Kind {
		case LinkDown:
			if e.Link < 0 || e.Link >= len(links) {
				return nil, nil, nil, fmt.Errorf("faults: link %d out of range [0,%d)", e.Link, len(links))
			}
			down[e.Link] = true
		case LinkDegrade:
			if e.Link < 0 || e.Link >= len(links) {
				return nil, nil, nil, fmt.Errorf("faults: link %d out of range [0,%d)", e.Link, len(links))
			}
			if e.Factor <= 0 || e.Factor >= 1 || math.IsNaN(e.Factor) {
				return nil, nil, nil, fmt.Errorf("faults: degrade factor %v must be in (0,1)", e.Factor)
			}
			if f, ok := capScale[e.Link]; ok {
				capScale[e.Link] = f * e.Factor
			} else {
				capScale[e.Link] = e.Factor
			}
		case CacheDown:
			if e.Node < 0 || e.Node >= decision.G.NumNodes() {
				return nil, nil, nil, fmt.Errorf("faults: node %d out of range", e.Node)
			}
			if decision.IsPinned(e.Node) {
				return nil, nil, nil, fmt.Errorf("faults: cannot fail pinned node %d", e.Node)
			}
			cacheDown[e.Node] = true
		case DemandSurge:
			if e.Factor <= 0 || math.IsNaN(e.Factor) || math.IsInf(e.Factor, 0) {
				return nil, nil, nil, fmt.Errorf("faults: surge factor %v must be positive and finite", e.Factor)
			}
			key := e.Item
			if key < 0 {
				key = -1
			} else if key >= truth.NumItems {
				return nil, nil, nil, fmt.Errorf("faults: surged item %d out of range [0,%d)", e.Item, truth.NumItems)
			}
			if f, ok := surge[key]; ok {
				surge[key] = f * e.Factor
			} else {
				surge[key] = e.Factor
			}
		default:
			return nil, nil, nil, fmt.Errorf("faults: unknown event kind %v", e.Kind)
		}
	}

	// Rebuild the graph without failed links, preserving per-direction
	// costs and capacities (feasibility augmentation makes them
	// asymmetric) and the AddEdge pairing convention, so the degraded
	// graph is itself a valid injection target for later hours.
	dg := graph.New(decision.G.NumNodes())
	for k, l := range links {
		if down[k] {
			cond.LinksDown = append(cond.LinksDown, k)
			continue
		}
		f, r := decision.G.Arc(l.Fwd), decision.G.Arc(l.Rev)
		capF, capR := f.Cap, r.Cap
		if scale, ok := capScale[k]; ok {
			cond.LinksDegraded = append(cond.LinksDegraded, k)
			if !math.IsInf(capF, 1) {
				capF *= scale
			}
			if !math.IsInf(capR, 1) {
				capR *= scale
			}
		}
		_, vu := dg.AddEdge(l.U, l.V, f.Cost, capF)
		dg.SetArcCost(vu, r.Cost)
		dg.SetArcCap(vu, capR)
	}

	// Cache capacities: one shared slice, zeroed on failed nodes, as the
	// simulator's MakeRun shares one CacheCap between the spec pair.
	cacheCap := append([]float64(nil), decision.CacheCap...)
	for v := range cacheDown {
		cacheCap[v] = 0
		cond.CachesDown = append(cond.CachesDown, v)
	}
	sort.Ints(cond.LinksDown)
	sort.Ints(cond.LinksDegraded)
	sort.Slice(cond.CachesDown, func(i, j int) bool { return cond.CachesDown[i] < cond.CachesDown[j] })

	// Truth demand surges; decision rates are untouched (the controller
	// plans on pre-surge forecasts).
	truthRates := truth.Rates
	if len(surge) > 0 {
		cond.Surged = true
		truthRates = make([][]float64, len(truth.Rates))
		for i := range truth.Rates {
			factor := 1.0
			if f, ok := surge[-1]; ok {
				factor *= f
			}
			if f, ok := surge[i]; ok {
				factor *= f
			}
			//jcrlint:allow float-eq: exact 1.0 fast path keeps unsurged rows shared, not a tolerance check
			if factor == 1 {
				truthRates[i] = truth.Rates[i]
				continue
			}
			row := append([]float64(nil), truth.Rates[i]...)
			for v := range row {
				row[v] *= factor
			}
			truthRates[i] = row
		}
	}

	dec := &placement.Spec{
		G: dg, NumItems: decision.NumItems, CacheCap: cacheCap,
		ItemSize: decision.ItemSize, Pinned: decision.Pinned, Rates: decision.Rates,
	}
	tr := &placement.Spec{
		G: dg, NumItems: truth.NumItems, CacheCap: cacheCap,
		ItemSize: truth.ItemSize, Pinned: truth.Pinned, Rates: truthRates,
	}
	return dec, tr, cond, nil
}

// RandomLinkFaults draws an independent per-link failure/repair chain over
// the given horizon: an up link fails each hour with probability 1/mtbf, a
// down link recovers with probability 1/mttr (both in hours, at least 1).
// The draw is fully determined by the seed (via internal/rng), so a
// scenario is reproducible across runs and machines.
func RandomLinkFaults(g *graph.Graph, hours int, mtbf, mttr float64, seed int64) (*Scenario, error) {
	links, err := Links(g)
	if err != nil {
		return nil, err
	}
	if hours <= 0 {
		return nil, fmt.Errorf("faults: horizon must be positive, got %d", hours)
	}
	if mtbf < 1 || math.IsNaN(mtbf) {
		return nil, fmt.Errorf("faults: mtbf %v must be at least 1 hour", mtbf)
	}
	if mttr < 1 || math.IsNaN(mttr) {
		return nil, fmt.Errorf("faults: mttr %v must be at least 1 hour", mttr)
	}
	r := rng.New(seed)
	sc := &Scenario{Name: fmt.Sprintf("random-links(mtbf=%g,mttr=%g,seed=%d)", mtbf, mttr, seed)}
	for k := range links {
		downSince := -1
		for h := 0; h < hours; h++ {
			if downSince < 0 {
				if r.Float64() < 1/mtbf {
					downSince = h
				}
			} else if r.Float64() < 1/mttr {
				sc.Events = append(sc.Events, Event{Kind: LinkDown, Start: downSince, Duration: h - downSince, Link: k})
				downSince = -1
			}
		}
		if downSince >= 0 {
			sc.Events = append(sc.Events, Event{Kind: LinkDown, Start: downSince, Duration: hours - downSince, Link: k})
		}
	}
	return sc, nil
}

// CacheFailure scripts a single cache-node failure with content loss.
func CacheFailure(node graph.NodeID, start, duration int) *Scenario {
	return &Scenario{
		Name:   fmt.Sprintf("cache-%d-down", node),
		Events: []Event{{Kind: CacheDown, Start: start, Duration: duration, Node: node}},
	}
}

// Surge scripts a demand surge multiplying item's realized demand by
// factor (item < 0 surges the whole catalog).
func Surge(item int, factor float64, start, duration int) *Scenario {
	return &Scenario{
		Name:   fmt.Sprintf("surge-x%g", factor),
		Events: []Event{{Kind: DemandSurge, Start: start, Duration: duration, Item: item, Factor: factor}},
	}
}

// ControlPlaneDownAt reports whether a ControlPlaneDown event is in effect
// at the given hour. Nil-safe.
func (sc *Scenario) ControlPlaneDownAt(hour int) bool {
	if sc == nil {
		return false
	}
	for _, e := range sc.Events {
		if e.Kind == ControlPlaneDown && e.ActiveAt(hour) {
			return true
		}
	}
	return false
}

// CorruptPushAt reports whether a PushCorrupt event is in effect at the
// given hour. Nil-safe.
func (sc *Scenario) CorruptPushAt(hour int) bool {
	if sc == nil {
		return false
	}
	for _, e := range sc.Events {
		if e.Kind == PushCorrupt && e.ActiveAt(hour) {
			return true
		}
	}
	return false
}

// ControlPlaneOutage scripts a control-plane death for hours in
// [start, start+duration): the serving layer runs those hours without a
// replan or a push, and traffic must keep resolving from the last-known-
// good plan and the fail-safe routes.
func ControlPlaneOutage(start, duration int) *Scenario {
	return &Scenario{
		Name:   fmt.Sprintf("cp-outage@%d+%d", start, duration),
		Events: []Event{{Kind: ControlPlaneDown, Start: start, Duration: duration}},
	}
}

// CorruptedPush scripts in-flight plan corruption for hours in
// [start, start+duration): every push during those hours reaches the data
// plane as garbage, and swap validation must reject it, keeping the
// last-known-good plan serving.
func CorruptedPush(start, duration int) *Scenario {
	return &Scenario{
		Name:   fmt.Sprintf("corrupt-push@%d+%d", start, duration),
		Events: []Event{{Kind: PushCorrupt, Start: start, Duration: duration}},
	}
}
