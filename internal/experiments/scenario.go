package experiments

import (
	"fmt"
	"sync"

	"jcr/internal/demand"
	"jcr/internal/gpr"
	"jcr/internal/graph"
	"jcr/internal/placement"
	"jcr/internal/rng"
	"jcr/internal/topo"
)

// PredictionMode selects the demand the decisions are based on; evaluation
// is always against the true demand.
type PredictionMode int

// Prediction modes.
const (
	// TrueDemand gives the algorithms perfect knowledge.
	TrueDemand PredictionMode = iota + 1
	// GPRPrediction forecasts each video's next-hour views with the
	// from-scratch Gaussian process (Fig. 4).
	GPRPrediction
	// SyntheticError perturbs the truth with N(0, sigma^2) noise
	// (Appendix D.3, Fig. 13).
	SyntheticError
)

// Scenario bundles the evaluation network and workload shared by the
// experiments.
type Scenario struct {
	Cfg    *Config
	Net    *topo.Network
	Videos []demand.Video
	Trace  *demand.Trace
	// gprCache memoizes per-(video, hour) GPR forecasts. gprMu guards it:
	// Monte-Carlo samples run concurrently (see samples.go) and may race
	// on the same key. The forecast is a pure function of the trace, so a
	// duplicated computation stores the identical value and the cache's
	// fill order cannot affect results.
	gprMu    sync.Mutex
	gprCache map[[2]int]float64
}

// NewScenario builds the default Section-6 scenario on the given network
// (pass nil for the Abovenet stand-in).
func NewScenario(cfg *Config, net *topo.Network) *Scenario {
	if net == nil {
		net = topo.Abovenet(cfg.Seed)
	}
	costRng := rng.Derive(cfg.Seed, 1000)
	net.AssignCosts(costRng, 100, 200, 1, 20)
	videos := demand.TopVideos(cfg.NumVideos)
	trace := demand.SynthesizeTrace(videos, cfg.TraceHours, cfg.Seed+2000)
	return &Scenario{Cfg: cfg, Net: net, Videos: videos, Trace: trace, gprCache: map[[2]int]float64{}}
}

// RunParams describe one experiment run's workload shape.
type RunParams struct {
	// FileLevel switches to heterogeneous whole-file items.
	FileLevel bool
	// ChunkMB overrides the chunk size (0 = config default).
	ChunkMB float64
	// CacheSlots overrides zeta (0 = config default for the level).
	CacheSlots float64
	// CapacityFrac overrides the link-capacity fraction; negative means
	// unlimited link capacities (the Section 4.1 regime).
	CapacityFrac float64
	// Mode selects the decision demand; evaluation uses the truth.
	Mode PredictionMode
	// SigmaFrac is the SyntheticError noise level.
	SigmaFrac float64
	// Hour indexes into the collection window.
	Hour int
	// MCSeed differentiates Monte-Carlo runs (request spreading).
	MCSeed int64
}

// Run is a fully materialized experiment instance: the decision spec (from
// possibly predicted demand) and the ground-truth spec on the same network.
type Run struct {
	Scenario *Scenario
	Params   RunParams
	Items    []demand.Item
	// Decision is what the algorithms see; Truth is what they are
	// evaluated on. Both share the same graph object.
	Decision *placement.Spec
	Truth    *placement.Spec
	// Dist is the all-pairs least-cost matrix (computed after costs and
	// capacities are set; costs do not depend on capacities).
	Dist [][]float64

	// eng caches shortest-path trees across the run's truth evaluations.
	// Runs are per-sample and per-worker, never shared across goroutines,
	// so one lazy engine per Run is safe and keeps `-workers N` output
	// bit-for-bit identical (the engine never changes results).
	eng *graph.Engine
}

// engine returns the run's lazily created shortest-path-tree engine.
func (run *Run) engine() *graph.Engine {
	if run.eng == nil {
		run.eng = graph.NewEngine()
	}
	return run.eng
}

// absoluteHour maps a collection-window hour to a trace index.
func (sc *Scenario) absoluteHour(hour int) int {
	return sc.Cfg.TraceHours - demand.CollectionHours + hour
}

// decisionViews produces the per-video views the algorithms base decisions
// on for the given hour.
func (sc *Scenario) decisionViews(p RunParams) ([]float64, error) {
	abs := sc.absoluteHour(p.Hour)
	switch p.Mode {
	case TrueDemand, 0:
		return append([]float64(nil), sc.Trace.Views[abs]...), nil
	case SyntheticError:
		pt := demand.PerturbedTrace(sc.Trace, abs, abs+1, p.SigmaFrac, sc.Cfg.Seed+7000+int64(p.Hour))
		return pt.Views[0], nil
	case GPRPrediction:
		views := make([]float64, len(sc.Videos))
		for v := range sc.Videos {
			key := [2]int{v, abs}
			sc.gprMu.Lock()
			pred, ok := sc.gprCache[key]
			sc.gprMu.Unlock()
			if ok {
				views[v] = pred
				continue
			}
			lo := abs - sc.Cfg.GPRWindow
			if lo < 0 {
				lo = 0
			}
			series := make([]float64, abs-lo)
			for h := lo; h < abs; h++ {
				series[h-lo] = sc.Trace.Views[h][v]
			}
			m, err := gpr.FitAuto(series)
			if err != nil {
				return nil, fmt.Errorf("experiments: GPR for video %d: %w", v, err)
			}
			pred = m.PredictSeries(1)[0]
			sc.gprMu.Lock()
			sc.gprCache[key] = pred
			sc.gprMu.Unlock()
			views[v] = pred
		}
		return views, nil
	default:
		return nil, fmt.Errorf("experiments: unknown prediction mode %d", p.Mode)
	}
}

// MakeRun materializes a run: catalog, decision/truth demand matrices,
// link capacities with feasibility augmentation, and cache capacities.
func (sc *Scenario) MakeRun(p RunParams) (*Run, error) {
	cfg := sc.Cfg
	chunkMB := p.ChunkMB
	if chunkMB == 0 {
		chunkMB = cfg.ChunkMB
	}
	var items []demand.Item
	if p.FileLevel {
		items = demand.FileCatalog(sc.Videos)
	} else {
		items = demand.ChunkCatalog(sc.Videos, chunkMB)
	}
	abs := sc.absoluteHour(p.Hour)
	trueViews := sc.Trace.Views[abs]
	decViews, err := sc.decisionViews(p)
	if err != nil {
		return nil, err
	}
	trueItemRates := demand.ItemRates(items, trueViews, p.FileLevel)
	decItemRates := demand.ItemRates(items, decViews, p.FileLevel)

	// The random request-to-edge spread is the Monte-Carlo variable; the
	// same proportions apply to true and predicted rates (prediction
	// errors are in the totals, not the spatial split).
	//
	// Each run gets its own graph clone so capacity settings of live
	// runs never interfere.
	net := &topo.Network{
		Name:   sc.Net.Name,
		G:      sc.Net.G.Clone(),
		Origin: sc.Net.Origin,
		Edges:  sc.Net.Edges,
	}
	net.IndexRoles()
	nEdges := len(net.Edges)
	spreadRng := rng.Derive(cfg.Seed, 40000+p.MCSeed)
	weights := make([][]float64, len(items))
	for i := range weights {
		weights[i] = make([]float64, nEdges)
		var sum float64
		for e := range weights[i] {
			w := spreadRng.ExpFloat64()
			weights[i][e] = w
			sum += w
		}
		for e := range weights[i] {
			weights[i][e] /= sum
		}
	}
	makeRates := func(itemRates []float64) [][]float64 {
		rates := make([][]float64, len(items))
		for i := range rates {
			rates[i] = make([]float64, net.G.NumNodes())
			for e, v := range net.Edges {
				rates[i][v] = itemRates[i] * weights[i][e]
			}
		}
		return rates
	}
	trueRates := makeRates(trueItemRates)
	decRates := makeRates(decItemRates)

	// Link capacities: kappa = frac * total TRUE request rate, plus the
	// feasibility augmentation toward each edge node.
	capFrac := p.CapacityFrac
	if capFrac == 0 {
		capFrac = cfg.CapacityFrac
	}
	if capFrac < 0 {
		net.SetUnlimitedCapacity()
	} else {
		var total float64
		for _, r := range trueItemRates {
			total += r
		}
		net.SetUniformCapacity(capFrac * total)
		edgeDemand := make([]float64, nEdges)
		for e := range edgeDemand {
			for i := range items {
				// Use the max of true and decision demand so both
				// workloads stay origin-servable.
				d := trueRates[i][net.Edges[e]]
				if dd := decRates[i][net.Edges[e]]; dd > d {
					d = dd
				}
				edgeDemand[e] += d
			}
		}
		if err := net.AugmentFeasibility(edgeDemand); err != nil {
			return nil, err
		}
	}

	// Cache capacities.
	slots := p.CacheSlots
	if slots == 0 {
		if p.FileLevel {
			slots = cfg.FileSlots
		} else {
			slots = cfg.ChunkSlots
		}
	}
	cacheCap := make([]float64, net.G.NumNodes())
	var itemSize []float64
	if p.FileLevel {
		itemSize = make([]float64, len(items))
		var avg float64
		for i, it := range items {
			itemSize[i] = it.SizeMB
			avg += it.SizeMB
		}
		avg /= float64(len(items))
		for _, v := range net.Edges {
			cacheCap[v] = slots * avg
		}
	} else {
		for _, v := range net.Edges {
			cacheCap[v] = slots
		}
	}
	mkSpec := func(rates [][]float64) *placement.Spec {
		return &placement.Spec{
			G:        net.G,
			NumItems: len(items),
			CacheCap: cacheCap,
			ItemSize: itemSize,
			Pinned:   []graph.NodeID{net.Origin},
			Rates:    rates,
		}
	}
	run := &Run{
		Scenario: sc,
		Params:   p,
		Items:    items,
		Decision: mkSpec(decRates),
		Truth:    mkSpec(trueRates),
		Dist:     graph.AllPairs(net.G),
	}
	return run, nil
}
