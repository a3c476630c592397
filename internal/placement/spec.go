// Package placement implements the content-placement algorithms of the
// paper: Algorithm 1 (the truly polynomial-time pipage-rounding algorithm
// for integral caching under unlimited link capacities, Section 4.1), the
// greedy submodular placement used for heterogeneous item sizes (Section
// 5), the per-path placement subroutine of the alternating optimizer
// (Section 4.3.1), and the benchmark placements of Ioannidis & Yeh: the
// shortest-path placement of [38] and the k-shortest-paths joint scheme of
// [3].
package placement

import (
	"fmt"
	"math"
	"sort"

	"jcr/internal/graph"
)

// Numerical tolerances shared across the package's placement algorithms,
// named in one place so the package's numerics are auditable (enforced by
// jcrlint tol-literal).
const (
	// capSlack absorbs floating-point residue when comparing cache
	// occupancy or item sizes against capacities (Eq. 1f checks).
	capSlack = 1e-9
	// fracTol decides when a fractional LP value counts as exactly 0 or
	// 1 during pipage rounding.
	fracTol = 1e-9
	// gainEps is the smallest gain treated as a strict improvement by
	// the greedy and polishing passes; it also bounds leftover
	// fractional mass treated as fully assigned.
	gainEps = 1e-12
	// swapGainEps is the minimum net saving for a polish swap to be
	// applied; larger than gainEps because a swap perturbs two items and
	// must clear float noise from both the gain and the loss estimate.
	swapGainEps = 1e-9
)

// Spec describes a content-placement problem.
type Spec struct {
	// G is the network; arc capacities are ignored by placement (they
	// matter to routing).
	G *graph.Graph
	// NumItems is the catalog size |C|.
	NumItems int
	// CacheCap[v] is node v's cache capacity: a number of items when
	// ItemSize is nil (homogeneous chunks), otherwise the same unit as
	// ItemSize (e.g. MB). Zero for nodes without caches.
	CacheCap []float64
	// ItemSize[i] is item i's size for the heterogeneous model of
	// Section 5; nil means all items have unit size.
	ItemSize []float64
	// Pinned lists nodes that permanently store the entire catalog (the
	// origin server); they are not placement decisions and are exempt
	// from CacheCap.
	Pinned []graph.NodeID
	// Rates[i][s] is the request rate lambda_(i,s); s ranges over all
	// nodes (zero where node s does not request item i).
	Rates [][]float64
}

// Size returns item i's size (1 under the homogeneous model).
func (s *Spec) Size(i int) float64 {
	if s.ItemSize == nil {
		return 1
	}
	return s.ItemSize[i]
}

// IsPinned reports whether node v permanently stores everything.
func (s *Spec) IsPinned(v graph.NodeID) bool {
	for _, p := range s.Pinned {
		if p == v {
			return true
		}
	}
	return false
}

// Validate checks internal consistency of the spec.
func (s *Spec) Validate() error {
	n := s.G.NumNodes()
	if len(s.CacheCap) != n {
		return fmt.Errorf("placement: %d cache capacities for %d nodes", len(s.CacheCap), n)
	}
	if s.ItemSize != nil && len(s.ItemSize) != s.NumItems {
		return fmt.Errorf("placement: %d item sizes for %d items", len(s.ItemSize), s.NumItems)
	}
	if len(s.Rates) != s.NumItems {
		return fmt.Errorf("placement: %d rate rows for %d items", len(s.Rates), s.NumItems)
	}
	for i, row := range s.Rates {
		if len(row) != n {
			return fmt.Errorf("placement: item %d has %d rate entries for %d nodes", i, len(row), n)
		}
		for _, r := range row {
			if r < 0 || math.IsNaN(r) {
				return fmt.Errorf("placement: item %d has invalid rate %v", i, r)
			}
		}
	}
	for _, p := range s.Pinned {
		if p < 0 || p >= n {
			return fmt.Errorf("placement: pinned node %d out of range", p)
		}
	}
	return nil
}

// Request identifies one request type (i, s).
type Request struct {
	Item int
	Node graph.NodeID
}

// Requests enumerates the request types with positive rate.
func (s *Spec) Requests() []Request {
	var out []Request
	for i, row := range s.Rates {
		for v, r := range row {
			if r > 0 {
				out = append(out, Request{Item: i, Node: v})
			}
		}
	}
	return out
}

// Placement is an integral caching decision. Stores[v][i] reports whether
// node v caches item i; pinned nodes store everything.
type Placement struct {
	Stores [][]bool
}

// NewPlacement returns an empty placement for the spec with the pinned
// nodes filled in.
func (s *Spec) NewPlacement() *Placement {
	p := &Placement{Stores: make([][]bool, s.G.NumNodes())}
	for v := range p.Stores {
		p.Stores[v] = make([]bool, s.NumItems)
	}
	for _, v := range s.Pinned {
		for i := 0; i < s.NumItems; i++ {
			p.Stores[v][i] = true
		}
	}
	return p
}

// Clone returns an independent deep copy of the placement.
func (p *Placement) Clone() *Placement {
	c := &Placement{Stores: make([][]bool, len(p.Stores))}
	for v := range p.Stores {
		c.Stores[v] = append([]bool(nil), p.Stores[v]...)
	}
	return c
}

// Has reports whether v stores item i.
func (p *Placement) Has(v graph.NodeID, i int) bool { return p.Stores[v][i] }

// Replicas returns the nodes storing item i.
func (p *Placement) Replicas(i int) []graph.NodeID {
	var out []graph.NodeID
	for v := range p.Stores {
		if p.Stores[v][i] {
			out = append(out, v)
		}
	}
	return out
}

// Occupancy returns node v's used cache size under the spec's item sizes.
func (s *Spec) Occupancy(p *Placement, v graph.NodeID) float64 {
	var used float64
	for i := 0; i < s.NumItems; i++ {
		if p.Stores[v][i] {
			used += s.Size(i)
		}
	}
	return used
}

// MaxOccupancyRatio returns the maximum used-to-capacity ratio over all
// non-pinned cache nodes, the "maximum cache occupancy" metric of Fig. 5:
// values above 1 mean the placement is infeasible.
func (s *Spec) MaxOccupancyRatio(p *Placement) float64 {
	var worst float64
	for v := range p.Stores {
		if s.IsPinned(v) || s.CacheCap[v] <= 0 {
			continue
		}
		if r := s.Occupancy(p, v) / s.CacheCap[v]; r > worst {
			worst = r
		}
	}
	return worst
}

// CheckFeasible verifies cache capacities (pinned nodes exempt).
func (s *Spec) CheckFeasible(p *Placement) error {
	for v := range p.Stores {
		if s.IsPinned(v) {
			continue
		}
		if used := s.Occupancy(p, v); used > s.CacheCap[v]+capSlack {
			return fmt.Errorf("placement: node %d uses %.6g of capacity %.6g", v, used, s.CacheCap[v])
		}
	}
	return nil
}

// EvictToFit makes placement p feasible for this spec by evicting items
// from every over-capacity non-pinned node until its occupancy fits
// CacheCap. Eviction order is deterministic: the item with the smallest
// local demand rate Rates[i][v] goes first, ties broken toward the larger
// item index, so locally popular content survives a capacity loss. It
// returns the number of evicted (node, item) entries. Used when carrying a
// last-known-good placement onto a degraded network whose caches shrank or
// failed.
func (s *Spec) EvictToFit(p *Placement) int {
	evicted := 0
	for v := range p.Stores {
		if s.IsPinned(v) {
			continue
		}
		used := s.Occupancy(p, v)
		if used <= s.CacheCap[v]+capSlack {
			continue
		}
		// Stored items, least locally demanded last so we can pop them.
		var stored []int
		for i := 0; i < s.NumItems; i++ {
			if p.Stores[v][i] {
				stored = append(stored, i)
			}
		}
		sort.SliceStable(stored, func(a, b int) bool {
			ra, rb := s.Rates[stored[a]][v], s.Rates[stored[b]][v]
			//jcrlint:allow float-eq: deterministic sort tie-break, not a tolerance check
			if ra != rb {
				return ra > rb
			}
			return stored[a] < stored[b]
		})
		for used > s.CacheCap[v]+capSlack && len(stored) > 0 {
			i := stored[len(stored)-1]
			stored = stored[:len(stored)-1]
			p.Stores[v][i] = false
			used -= s.Size(i)
			evicted++
		}
	}
	return evicted
}
