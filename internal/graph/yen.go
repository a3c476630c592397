package graph

import "sort"

// KShortestPaths returns up to k cycle-free least-cost paths from src to dst
// in ascending cost order, using Yen's algorithm. It returns fewer than k
// paths if the graph does not contain that many distinct simple paths. The
// baseline of Ioannidis & Yeh [3] builds its candidate path set this way.
//
// All searches share one CSR snapshot and one pooled scratch, stop as soon
// as dst settles, and run on the masked kernel with one arc bitmask set and
// cleared around each spur search. A banned root node is a ban on its
// in-arcs, so the kernel never reaches it: the arcs left in and their scan
// order are exactly those of a search that skips the node.
func KShortestPaths(g *Graph, src, dst NodeID, k int) []Path {
	if k <= 0 {
		return nil
	}
	c := g.view()
	s := acquireScratch(c.n)
	defer releaseScratch(s)
	ban := make([]uint64, (g.NumArcs()+63)/64)
	dijkstraCSRMask(c, src, dst, s, ban)
	first, ok := s.path(g, src, dst)
	if !ok {
		return nil
	}
	if src == dst {
		return []Path{{}}
	}
	accepted := []Path{first}
	// candidates holds spur paths not yet accepted, deduplicated by
	// arc-sequence signature.
	type cand struct {
		path Path
		cost float64
	}
	var candidates []cand
	var seen pathSet
	seen.add(first.Arcs)

	var banned []int32 // arcs set in ban for the current spur

	for len(accepted) < k {
		prev := accepted[len(accepted)-1]
		prevNodes := prev.Nodes(g)
		// Spur from each node of the previously accepted path.
		for i := 0; i < len(prevNodes)-1; i++ {
			spurNode := prevNodes[i]
			rootArcs := prev.Arcs[:i]

			// Arcs removed: for every accepted path sharing the
			// root, remove the arc it takes out of the spur node.
			banned = banned[:0]
			for _, p := range accepted {
				if len(p.Arcs) > i && sameArcs(p.Arcs[:i], rootArcs) {
					banned = append(banned, int32(p.Arcs[i]))
				}
			}
			// Nodes removed: all root nodes before the spur node.
			for _, v := range prevNodes[:i] {
				banned = append(banned, c.revArc[c.revHead[v]:c.revHead[v+1]]...)
			}
			for _, id := range banned {
				maskSetBit(ban, int(id))
			}

			s.reset(c.n)
			dijkstraCSRMask(c, spurNode, dst, s, ban)
			spur, ok := s.path(g, spurNode, dst)

			// Every set bit belongs to banned, so zeroing their
			// words clears the mask.
			for _, id := range banned {
				ban[id>>6] = 0
			}
			if !ok {
				continue
			}
			total := Path{Arcs: append(append([]ArcID(nil), rootArcs...), spur.Arcs...)}
			if !seen.add(total.Arcs) {
				continue
			}
			candidates = append(candidates, cand{path: total, cost: total.Cost(g)})
		}
		if len(candidates) == 0 {
			break
		}
		sort.SliceStable(candidates, func(a, b int) bool { return candidates[a].cost < candidates[b].cost })
		accepted = append(accepted, candidates[0].path)
		candidates = candidates[1:]
	}
	return accepted
}

// pathSet deduplicates arc sequences without the per-lookup string
// allocation a map[string] key costs: sequences hash (FNV-1a over the arc
// IDs) into buckets whose members are compared arc-by-arc, so collisions
// cost a slice walk instead of correctness. The stored sequences alias the
// candidate paths, which Yen's loop never mutates after insertion.
type pathSet struct {
	buckets map[uint64][][]ArcID
}

// add inserts the sequence and reports whether it was new.
func (s *pathSet) add(arcs []ArcID) bool {
	const (
		fnvOffset = 14695981039346656037
		fnvPrime  = 1099511628211
	)
	var h uint64 = fnvOffset
	for _, id := range arcs {
		h = (h ^ uint64(uint32(id))) * fnvPrime
	}
	if s.buckets == nil {
		s.buckets = map[uint64][][]ArcID{}
	}
	for _, prev := range s.buckets[h] {
		if sameArcs(prev, arcs) {
			return false
		}
	}
	s.buckets[h] = append(s.buckets[h], arcs)
	return true
}

func sameArcs(a, b []ArcID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
