package main

import (
	"math"
	"sort"
	"time"
)

// Layers the benchmark times around its own calls into the program in a
// traced run, which makes the calls serve.ControlPlane.Step makes one by
// one. The spans are sequential within one replan (no nesting), so a
// span's duration is its layer's self time.
const (
	layerDecide  = "decide"  // strategy.Strategy.Decide: placement + routing
	layerCheck   = "check"   // check.PartialFlow: Eq. (1) feasibility
	layerCompile = "compile" // serve.Compile: plan -> lookup tables
	layerInstall = "install" // serve.DataPlane.Install: checked swap
)

var layers = []string{layerDecide, layerCheck, layerCompile, layerInstall}

// minRepeats is how many times every input a workload replans must be
// timed before a run may end: a run stops at the end of its window only
// once each input has been timed this often, so every figure rests on the
// same inputs whatever the program's speed.
const minRepeats = 3

// bestOf keeps, for every input of a timed operation, the fastest of that
// input's repeats. A workload walks its inputs cyclically, so each input
// is timed several times, seconds apart. The host's speed drifts by tens
// of percent over seconds (other tenants share the machine); the fastest
// repeat of an input is the run's estimate of that input's cost on an
// undisturbed host, and a statistic over inputs of those estimates is
// steady from run to run where one over raw samples is not.
type bestOf struct {
	d []time.Duration // per input key; 0 until the input is first timed
	n []int           // repeats timed per input key
}

func newBestOf(keys int) *bestOf {
	return &bestOf{d: make([]time.Duration, keys), n: make([]int, keys)}
}

// add records one timing of input key. Durations are clamped to 1ns so
// that 0 keeps meaning "not timed".
func (b *bestOf) add(key int, d time.Duration) {
	if d < 1 {
		d = 1
	}
	if b.d[key] == 0 || d < b.d[key] {
		b.d[key] = d
	}
	b.n[key]++
}

func (b *bestOf) merge(o *bestOf) {
	for k, d := range o.d {
		if d != 0 && (b.d[k] == 0 || d < b.d[k]) {
			b.d[k] = d
		}
		b.n[k] += o.n[k]
	}
}

// covered reports whether every key was timed at least minRepeats times.
func (b *bestOf) covered() bool {
	for _, n := range b.n {
		if n < minRepeats {
			return false
		}
	}
	return true
}

// timed is the number of inputs timed at least once.
func (b *bestOf) timed() int {
	n := 0
	for _, d := range b.d {
		if d != 0 {
			n++
		}
	}
	return n
}

// mean is the mean, in nanoseconds, over the inputs timed at least once;
// NaN when none was. Where inputs fall into classes of different cost (a
// cold Alg. 2 point against an Alg. 1 one) the median jumps between
// classes as the seed shifts their shares, and the mean moves smoothly.
func (b *bestOf) mean() float64 {
	var sum float64
	n := 0
	for _, d := range b.d {
		if d != 0 {
			sum += float64(d)
			n++
		}
	}
	return sum / float64(n)
}

// quantile is the q-quantile, in nanoseconds, over the inputs timed at
// least once (linear interpolation between closest ranks); NaN when none
// was.
func (b *bestOf) quantile(q float64) float64 {
	var ds []time.Duration
	for _, d := range b.d {
		if d != 0 {
			ds = append(ds, d)
		}
	}
	if len(ds) == 0 {
		return math.NaN()
	}
	sort.Slice(ds, func(a, c int) bool { return ds[a] < ds[c] })
	return interpolate(q, len(ds), func(k int) float64 { return float64(ds[k]) })
}

// interpolate is the q-quantile of n sorted values, read through at, with
// linear interpolation between closest ranks.
func interpolate(q float64, n int, at func(k int) float64) float64 {
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return at(lo)*(1-frac) + at(hi)*frac
}

// samples keeps every timing of an operation, in the order taken, cut
// into one-second windows of wall time. Lookups slow down by about a
// third while the other processor is busy (the control plane's solver,
// or another guest), in phases of a few seconds; the share of slow phases
// in a run varies, so a median or a tail over the whole run jumps between
// the two speeds from run to run. The mean moves with the share instead,
// and the median over windows of each window's tail follows the typical
// second.
type samples struct {
	ns     []uint32 // each sample, in nanoseconds
	starts []int    // index of each window's first sample
	end    time.Time
	sum    time.Duration
}

func (s *samples) add(d time.Duration) {
	if now := time.Now(); now.After(s.end) {
		s.starts = append(s.starts, len(s.ns))
		s.end = now.Add(time.Second)
	}
	s.ns = append(s.ns, uint32(min(max(d, 0), math.MaxUint32)))
	s.sum += d
}

// mean is the mean of all samples, in nanoseconds; NaN when there are
// none.
func (s *samples) mean() float64 { return float64(s.sum) / float64(len(s.ns)) }

// windowQuantile is the median over whole windows of each window's
// q-quantile, in nanoseconds; the last window, cut short by the end of
// the run, counts only when it is the only one.
func (s *samples) windowQuantile(q float64) float64 {
	var qs []float64
	for w, lo := range s.starts {
		if w+1 == len(s.starts) && w > 0 {
			break
		}
		hi := len(s.ns)
		if w+1 < len(s.starts) {
			hi = s.starts[w+1]
		}
		win := append([]uint32(nil), s.ns[lo:hi]...)
		sort.Slice(win, func(a, c int) bool { return win[a] < win[c] })
		qs = append(qs, interpolate(q, len(win), func(k int) float64 { return float64(win[k]) }))
	}
	if len(qs) == 0 {
		return math.NaN()
	}
	sort.Float64s(qs)
	return interpolate(0.5, len(qs), func(k int) float64 { return qs[k] })
}

// recorder keeps one goroutine's timings in memory until the run ends.
// End-to-end timings (replans, lookup bursts) are always kept; layer spans
// and counters only when tracing is on.
type recorder struct {
	trace bool

	// replans is keyed by hour: one replan cycle, per pushed or rejected
	// cycle.
	replans *bestOf
	// bursts holds every lookup burst's wall time.
	bursts *samples
	// spans is keyed by layer, then by hour.
	spans  map[string]*bestOf
	counts map[string]int64

	numReplans        int64
	numLookups        int64
	attempted, failed int64
	firstErr          error
}

// newRecorder sizes a recorder for a workload of the given number of
// hours.
func newRecorder(trace bool, hours int) *recorder {
	r := &recorder{
		trace:   trace,
		replans: newBestOf(hours),
		bursts:  &samples{},
		spans:   map[string]*bestOf{},
		counts:  map[string]int64{},
	}
	for _, l := range layers {
		r.spans[l] = newBestOf(hours)
	}
	return r
}

// layer records a span of hour's replan.
func (r *recorder) layer(name string, hour int, d time.Duration) {
	r.spans[name].add(hour, d)
}

// count adds to a named counter.
func (r *recorder) count(name string, n int64) {
	r.counts[name] += n
}

// fail records one failed operation, keeping the first cause for stderr.
func (r *recorder) fail(err error) {
	r.failed++
	if r.firstErr == nil {
		r.firstErr = err
	}
}

// merge folds another goroutine's recorder into r after that goroutine
// has stopped. Only one goroutine times lookups, so o has no bursts.
func (r *recorder) merge(o *recorder) {
	r.replans.merge(o.replans)
	for l, b := range o.spans {
		r.spans[l].merge(b)
	}
	for k, v := range o.counts {
		r.counts[k] += v
	}
	r.numReplans += o.numReplans
	r.numLookups += o.numLookups
	r.attempted += o.attempted
	r.failed += o.failed
	if r.firstErr == nil {
		r.firstErr = o.firstErr
	}
}

// medianSeconds is the median of a list of wall times, in seconds.
func medianSeconds(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
