package online

import (
	"context"
	"math/rand"
	"testing"

	"jcr/internal/strategy"
)

// samePlacement reports exact equality of two placements' stores.
func samePlacement(a, b [][]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for v := range a {
		if len(a[v]) != len(b[v]) {
			return false
		}
		for i := range a[v] {
			if a[v][i] != b[v][i] {
				return false
			}
		}
	}
	return true
}

// TestSolverReuseMatchesNoReuse runs the same workload through the
// alternating strategy with hour-to-hour solver reuse (the default) and with
// reuse disabled: every hour's decision must coincide — the retained bases
// and caches may only change how fast the answer arrives.
func TestSolverReuseMatchesNoReuse(t *testing.T) {
	hours := buildHours(t)
	reused, err := Run(nil, alternating(strategy.Options{WarmStart: true, Rng: rand.New(rand.NewSource(3))}), hours, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := Run(nil, alternating(strategy.Options{WarmStart: true, NoSolverReuse: true, Rng: rand.New(rand.NewSource(3))}), hours, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(reused.Hours) != len(cold.Hours) {
		t.Fatalf("hour counts: %d with reuse, %d without", len(reused.Hours), len(cold.Hours))
	}
	for h := range reused.Hours {
		a, b := reused.Hours[h], cold.Hours[h]
		//jcrlint:allow float-eq: bit-for-bit determinism contract between reuse on/off
		if a.Cost != b.Cost || a.Congestion != b.Congestion || a.Churn != b.Churn {
			t.Errorf("hour %d diverges: reuse (cost %v cong %v churn %d) vs cold (cost %v cong %v churn %d)",
				h, a.Cost, a.Congestion, a.Churn, b.Cost, b.Congestion, b.Churn)
		}
	}
}

// TestSolverReuseSurvivesFailedHour interleaves a canceled Decide between
// two good hours: the failed hour must error out without poisoning the
// retained solver state, so the following hour still matches a strategy that
// never saw the failure.
func TestSolverReuseSurvivesFailedHour(t *testing.T) {
	hours := buildHours(t)
	pol := alternating(strategy.Options{WarmStart: true, Rng: rand.New(rand.NewSource(4))})
	ref := alternating(strategy.Options{WarmStart: true, NoSolverReuse: true, Rng: rand.New(rand.NewSource(4))})

	d0, err := decide(context.Background(), pol, hours[0].Decision, hours[0].Dist)
	if err != nil {
		t.Fatal(err)
	}
	r0, err := decide(context.Background(), ref, hours[0].Decision, hours[0].Dist)
	if err != nil {
		t.Fatal(err)
	}
	if !samePlacement(d0.Placement.Stores, r0.Placement.Stores) {
		t.Fatal("hour 0 placements diverge before any failure")
	}

	// Hour 1 times out immediately (the DecideTimeout path hands the strategy
	// a context that is already done mid-flight).
	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := decide(cctx, pol, hours[1].Decision, hours[1].Dist); err == nil {
		t.Fatal("canceled Decide succeeded")
	}

	// Hour 2 must recover and agree with the reference strategy, whose only
	// history is the two successful hours.
	d2, err := decide(context.Background(), pol, hours[2].Decision, hours[2].Dist)
	if err != nil {
		t.Fatalf("hour after failure: %v", err)
	}
	r2, err := decide(context.Background(), ref, hours[2].Decision, hours[2].Dist)
	if err != nil {
		t.Fatal(err)
	}
	if !samePlacement(d2.Placement.Stores, r2.Placement.Stores) {
		t.Error("post-failure placement diverges from the never-failed reference")
	}
	if err := strategy.Validate(strategy.Instance{Spec: hours[2].Decision, Dist: hours[2].Dist}, d2); err != nil {
		t.Errorf("post-failure decision invalid: %v", err)
	}
}
