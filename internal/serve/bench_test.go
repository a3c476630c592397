package serve

import (
	"context"
	"testing"

	"jcr/internal/graph"
	"jcr/internal/placement"
	"jcr/internal/rng"
	"jcr/internal/strategy"
)

// benchServeSetup compiles a realistic plan on a 24-node mesh and returns
// the loaded data plane plus a sampled request stream.
func benchServeSetup(tb testing.TB) (*DataPlane, []placement.Request, []uint64) {
	tb.Helper()
	n, items := 24, 16
	g := graph.New(n)
	r := rng.New(5)
	for v := 1; v < n; v++ {
		g.AddEdge(v, r.Intn(v), 1+9*r.Float64(), 1000)
	}
	for k := 0; k < 2*n; k++ {
		u, v := r.Intn(n), r.Intn(n)
		if u != v {
			g.AddEdge(u, v, 1+9*r.Float64(), 1000)
		}
	}
	cap := make([]float64, n)
	rates := make([][]float64, items)
	for i := range rates {
		rates[i] = make([]float64, n)
	}
	for v := 1; v < n; v++ {
		cap[v] = float64(1 + r.Intn(3))
		for i := 0; i < items; i++ {
			if r.Float64() < 0.5 {
				rates[i][v] = r.Float64() * 10
			}
		}
	}
	s := &placement.Spec{G: g, NumItems: items, CacheCap: cap, Pinned: []graph.NodeID{0}, Rates: rates}
	dp, err := NewDataPlane(g, s.Pinned)
	if err != nil {
		tb.Fatal(err)
	}
	dec, _, err := rnr().Decide(context.Background(), strategy.Instance{Spec: s, Dist: graph.AllPairs(g)})
	if err != nil {
		tb.Fatal(err)
	}
	p, err := Compile(s, dec.Placement, dec.Paths, 1, 0)
	if err != nil {
		tb.Fatal(err)
	}
	if err := dp.Install(p); err != nil {
		tb.Fatal(err)
	}
	reqs := s.Requests()
	const stream = 4096
	sample := make([]placement.Request, stream)
	picks := make([]uint64, stream)
	for k := range sample {
		sample[k] = reqs[r.Intn(len(reqs))]
		picks[k] = r.Uint64()
	}
	return dp, sample, picks
}

// BenchmarkServeLookup measures the data plane's hot path (the serve_lookup
// row); the perf gate, `benchjson -compare`, pins it at >= 1M lookups/sec
// with zero allocations per op.
func BenchmarkServeLookup(b *testing.B) {
	dp, sample, picks := benchServeSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	var sink graph.NodeID
	for i := 0; i < b.N; i++ {
		k := i & (len(sample) - 1)
		rt := dp.Lookup(sample[k].Item, sample[k].Node, picks[k])
		sink += rt.Replica
	}
	_ = sink
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "lookups/s")
}

// BenchmarkServeLookupBurst stores whole Routes into a reused slice, 256
// per op, the shape of the end-to-end benchmark's timed lookup burst.
// Unlike BenchmarkServeLookup, which keeps one field, it pays for copying
// every Route out, so it reports the per-lookup cost a caller sees.
func BenchmarkServeLookupBurst(b *testing.B) {
	dp, sample, picks := benchServeSetup(b)
	const burst = 256
	routes := make([]Route, burst)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base := (i * burst) & (len(sample) - 1)
		for k := range routes {
			q := base + k
			routes[k] = dp.Lookup(sample[q].Item, sample[q].Node, picks[q])
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*burst), "ns/lookup")
}

// BenchmarkPlanSwap measures a full validated plan install: SelfCheck plus
// the atomic swap, the latency a push adds before new routes serve.
func BenchmarkPlanSwap(b *testing.B) {
	dp, _, _ := benchServeSetup(b)
	base := dp.Plan()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := base // plans are immutable; re-stamp a copy per swap
		c := *p
		c.Epoch = base.Epoch + uint64(i) + 1
		if err := dp.Install(&c); err != nil {
			b.Fatal(err)
		}
	}
}

// TestLookupAllocs pins the zero-allocation contract of the read path
// directly, independent of any benchmark run.
func TestLookupAllocs(t *testing.T) {
	dp, sample, picks := benchServeSetup(t)
	k := 0
	allocs := testing.AllocsPerRun(1000, func() {
		rt := dp.Lookup(sample[k].Item, sample[k].Node, picks[k])
		if !rt.Resolved() {
			t.Fatal("unresolved")
		}
		k = (k + 1) & (len(sample) - 1)
	})
	if allocs != 0 {
		t.Fatalf("Lookup allocates %v per call", allocs)
	}
}
