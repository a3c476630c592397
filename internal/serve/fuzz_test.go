package serve

import (
	"encoding/binary"
	"math"
	"reflect"
	"testing"

	"jcr/internal/graph"
	"jcr/internal/placement"
	"jcr/internal/rng"
)

// Plan edits for FuzzCompiledPlan. An input is one epoch byte followed by
// 5-byte edit records: a table selector (the value mod len(planTables);
// the quotient's low bit picks set or add), a little-endian uint16 index
// taken mod the table's length, and a little-endian int16 value. Integer
// tables take the value as is; float tables take value/8, with the int16
// extremes standing for NaN and +Inf.
const (
	editLen      = 5
	editAdd      = len(planTables)
	editNaN      = math.MinInt16
	editInf      = math.MaxInt16
	fuzzEpochMax = 3
)

// planTables names the editable tables of a compiled plan, in selector
// order: the offsets, rates, replicas, costs and arcs a push can corrupt.
var planTables = [...]string{"groupOff", "groupRate", "routeRate", "routeReplica", "routeCost", "arcOff", "arcs", "arcFrom", "arcTo"}

// planTable returns p's int32 or float64 table selected by sel.
func planTable(p *CompiledPlan, sel int) (ints []int32, floats []float64) {
	switch planTables[sel] {
	case "groupOff":
		return p.groupOff, nil
	case "groupRate":
		return nil, p.groupRate
	case "routeRate":
		return nil, p.routeRate
	case "routeReplica":
		return p.routeReplica, nil
	case "routeCost":
		return nil, p.routeCost
	case "arcOff":
		return p.paths.arcOff, nil
	case "arcs":
		return p.paths.arcs, nil
	case "arcFrom":
		return p.paths.arcFrom, nil
	default:
		return p.paths.arcTo, nil
	}
}

// encodeEdit appends one edit record.
func encodeEdit(buf []byte, table string, add bool, idx int, val int16) []byte {
	sel := 0
	for planTables[sel] != table {
		sel++
	}
	if add {
		sel += editAdd
	}
	buf = append(buf, byte(sel))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(idx))
	return binary.LittleEndian.AppendUint16(buf, uint16(val))
}

// applyEdits decodes edit records into a clone of base.
func applyEdits(base *CompiledPlan, edits []byte) *CompiledPlan {
	c := base.Clone()
	for ; len(edits) >= editLen; edits = edits[editLen:] {
		sel := int(edits[0]) % (2 * editAdd)
		add := sel >= editAdd
		ints, floats := planTable(c, sel%editAdd)
		idx := int(binary.LittleEndian.Uint16(edits[1:]))
		val := int16(binary.LittleEndian.Uint16(edits[3:]))
		switch {
		case len(ints) > 0:
			if i := idx % len(ints); add {
				ints[i] += int32(val)
			} else {
				ints[i] = int32(val)
			}
		case len(floats) > 0:
			x := float64(val) / 8
			switch val {
			case editNaN:
				x = math.NaN()
			case editInf:
				x = math.Inf(1)
			}
			if i := idx % len(floats); add {
				floats[i] += x
			} else {
				floats[i] = x
			}
		}
	}
	return c
}

// fuzzBasePlan compiles the fuzz target's clean plan: a randomized spec
// served by RNR, with split and zero-rate routes added.
func fuzzBasePlan(tb testing.TB) (*CompiledPlan, *placement.Spec) {
	tb.Helper()
	s := randomSpec(rng.Derive(4242, 3))
	pl, paths := solveRNR(tb, s)
	p, err := Compile(s, pl, splitSomeRoutes(rng.Derive(4242, 4), s, pl, paths), 1, 0)
	if err != nil {
		tb.Fatal(err)
	}
	return p, s
}

// corruptPlanSeeds encodes the four CorruptPlan variants as edit inputs
// (seed k is variant k), each preceded by an epoch byte that would make
// the push acceptable on epoch alone.
func corruptPlanSeeds(p *CompiledPlan) [][]byte {
	nr := len(p.routeRate)
	seeds := make([][]byte, 4)
	for seed := range seeds {
		r := seed % nr
		buf := []byte{fuzzEpochMax - 1}
		switch seed {
		case 0:
			buf = encodeEdit(buf, "routeRate", false, r, -8)
		case 1:
			buf = encodeEdit(buf, "routeReplica", false, r, int16((int(p.routeReplica[r])+1)%p.NumNodes))
		case 2:
			buf = encodeEdit(buf, "arcOff", true, nr, 1)
		default:
			buf = encodeEdit(buf, "groupOff", false, len(p.groupOff)/2, int16(nr+7))
		}
		seeds[seed] = buf
	}
	return seeds
}

// TestCorruptPlanSeedsMatch pins the fuzz corpus to what it claims to
// seed: each encoded edit reproduces its CorruptPlan variant exactly.
func TestCorruptPlanSeedsMatch(t *testing.T) {
	base, _ := fuzzBasePlan(t)
	for seed, in := range corruptPlanSeeds(base) {
		if got, want := applyEdits(base, in[1:]), CorruptPlan(base, int64(seed)); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: edits do not reproduce CorruptPlan", seed)
		}
	}
}

// FuzzCompiledPlan edits a compiled plan's tables and checks the swap
// gate end to end: SelfCheck never panics, Install accepts exactly when
// SelfCheck and the epoch rule do, and on an accepted plan every lookup
// returns a contiguous replica→requester walk inside its arc table.
func FuzzCompiledPlan(f *testing.F) {
	base, s := fuzzBasePlan(f)
	f.Add([]byte{fuzzEpochMax - 1})
	for _, in := range corruptPlanSeeds(base) {
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 {
			return
		}
		dp, err := NewDataPlane(s.G, s.Pinned)
		if err != nil {
			t.Fatal(err)
		}
		installed := base.Clone()
		installed.Epoch = 2
		if err := dp.Install(installed); err != nil {
			t.Fatal(err)
		}
		p := applyEdits(base, in[1:])
		p.Epoch = 1 + uint64(in[0])%fuzzEpochMax
		selfErr := p.SelfCheck()
		err = dp.Install(p)
		if want := selfErr == nil && p.Epoch > installed.Epoch; (err == nil) != want {
			t.Fatalf("Install err %v, SelfCheck err %v, epoch %d over %d", err, selfErr, p.Epoch, installed.Epoch)
		}
		var word [8]byte
		copy(word[:], in)
		picks := []uint64{0, 1 << 63, math.MaxUint64, binary.LittleEndian.Uint64(word[:])}
		for item := -1; item <= p.NumItems; item++ {
			for node := -1; node <= p.NumNodes; node++ {
				for _, pick := range picks {
					checkWalk(t, dp, item, node, dp.Lookup(item, node, pick))
				}
			}
		}
	})
}

// checkWalk asserts a lookup's route is a contiguous walk from its
// replica to the requester over arcs of the table it points into, and
// that plan routes come from the installed plan.
func checkWalk(t *testing.T, dp *DataPlane, item int, node graph.NodeID, rt Route) {
	t.Helper()
	switch rt.Kind {
	case RouteNone:
		if node >= 0 && node < dp.fs.numNodes && dp.fs.server[node] >= 0 {
			t.Fatalf("lookup (%d,%d) unresolved on a reachable node", item, node)
		}
		return
	case RoutePlan:
		if p := dp.Plan(); rt.path.t != &p.paths || rt.Epoch != p.Epoch {
			t.Fatalf("lookup (%d,%d) plan route does not read the installed plan", item, node)
		}
	case RouteFailsafe:
		if rt.path.t != &dp.fs.paths {
			t.Fatalf("lookup (%d,%d) fail-safe route does not read the fail-safe table", item, node)
		}
	}
	if rt.Hops() == 0 {
		if rt.Replica != node {
			t.Fatalf("lookup (%d,%d) local hit served from %d", item, node, rt.Replica)
		}
		return
	}
	tab := rt.path.t
	if rt.Node(0) != rt.Replica {
		t.Fatalf("lookup (%d,%d) walk starts at %d, replica %d", item, node, rt.Node(0), rt.Replica)
	}
	for j := 0; j < rt.Hops(); j++ {
		a := rt.Arc(j)
		if a < 0 || a >= len(tab.arcFrom) {
			t.Fatalf("lookup (%d,%d) hop %d arc %d outside the %d-arc table", item, node, j, a, len(tab.arcFrom))
		}
		if int(tab.arcFrom[a]) != rt.Node(j) || int(tab.arcTo[a]) != rt.Node(j+1) {
			t.Fatalf("lookup (%d,%d) walk breaks at hop %d", item, node, j)
		}
	}
	if rt.Node(rt.Hops()) != node {
		t.Fatalf("lookup (%d,%d) walk ends at %d", item, node, rt.Node(rt.Hops()))
	}
}
