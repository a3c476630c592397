package experiments

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateScorecards = flag.Bool("update-scorecards", false, "rewrite the quick scorecard golden outputs")

// scorecardGolden renders a scorecard's CSV without its wall_ms columns:
// every other field is a pure function of the seed, so the rest pins the
// scorecard byte for byte.
func scorecardGolden(sc *Scorecard) string {
	var b strings.Builder
	drop := -1
	header := false
	for _, line := range strings.SplitAfter(sc.CSV(), "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			b.WriteString(line)
			header = true
			continue
		}
		fields := strings.Split(strings.TrimSuffix(line, "\n"), ",")
		if header {
			drop = -1
			for i, f := range fields {
				if f == "wall_ms" {
					drop = i
				}
			}
			header = false
		}
		if drop >= 0 && drop < len(fields) {
			fields = append(fields[:drop], fields[drop+1:]...)
		}
		b.WriteString(strings.Join(fields, ",") + "\n")
	}
	return b.String()
}

// TestQuickScorecardsPinned pins the quick arena and quick scaling
// scorecards (the CI smoke grids), so a change that moves any strategy's
// served fraction, delay, congestion, iteration count or status on them
// shows up in review.
func TestQuickScorecardsPinned(t *testing.T) {
	for _, tc := range []struct {
		id  string
		run func(context.Context, *Config, bool) (*Scorecard, error)
	}{
		{"arena_quick", Arena},
		{"scaling_quick", Scaling},
	} {
		tc := tc
		t.Run(tc.id, func(t *testing.T) {
			sc, err := tc.run(context.Background(), tinyConfig(), true)
			if err != nil {
				t.Fatal(err)
			}
			got := scorecardGolden(sc)
			path := filepath.Join("testdata", "scorecard_"+tc.id+".golden")
			if *updateScorecards {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("%s scorecard changed versus its golden (run with -update-scorecards only if the change is intended):\n--- got ---\n%s", tc.id, got)
			}
		})
	}
}
