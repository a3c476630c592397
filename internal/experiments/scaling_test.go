package experiments

import (
	"bytes"
	"context"
	"testing"

	"jcr/internal/routing"
)

// TestScalingQuick runs the CI smoke grid end-to-end: alternating
// completes every quick cell, some cell overloads the independent per-item
// flows so a coupled routing rung runs, and the scorecard passes its
// registered check.
func TestScalingQuick(t *testing.T) {
	sc, err := Scaling(context.Background(), tinyConfig(), true)
	if err != nil {
		t.Fatalf("Scaling: %v", err)
	}
	if len(sc.Cells) != 2 {
		t.Fatalf("quick grid has %d cells, want 2", len(sc.Cells))
	}
	if err := scalingCheck(sc); err != nil {
		t.Errorf("scalingCheck: %v", err)
	}
	coupled := false
	for _, r := range sc.Results {
		if r.Status != "ok" {
			t.Errorf("%s/%s: status %s (%s)", r.Cell, r.Strategy, r.Status, r.Err)
		}
		if r.Strategy == "alternating" && r.Method != routing.MethodIndependent {
			coupled = true
		}
	}
	if !coupled {
		t.Errorf("every quick cell routed on independent flows; results: %+v", sc.Results)
	}
}

// TestScalingWorkersIdentical is the scorecard determinism claim behind
// `jcrsim -exp scaling -workers N`: the workers knob parallelizes inside
// each bout only, so with no injected clock the archived scorecard is
// byte-for-byte identical for 1 and 4 workers — CSV and JSON both.
func TestScalingWorkersIdentical(t *testing.T) {
	cfgSeq := tinyConfig()
	cfgSeq.Workers = 1
	cfgPar := tinyConfig()
	cfgPar.Workers = 4
	seq, err := Scaling(context.Background(), cfgSeq, true)
	if err != nil {
		t.Fatalf("sequential scaling: %v", err)
	}
	par, err := Scaling(context.Background(), cfgPar, true)
	if err != nil {
		t.Fatalf("parallel scaling: %v", err)
	}
	if sc, pc := seq.CSV(), par.CSV(); sc != pc {
		t.Errorf("scaling CSV differs between 1 and 4 workers:\n--- seq ---\n%s\n--- par ---\n%s", sc, pc)
	}
	sj, err := seq.JSON()
	if err != nil {
		t.Fatal(err)
	}
	pj, err := par.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sj, pj) {
		t.Errorf("scaling scorecard differs between 1 and 4 workers:\n--- seq ---\n%s\n--- par ---\n%s", sj, pj)
	}
}

// TestScalingGrid pins the full grid's size without running it: four
// composite sizes at two catalog sizes.
func TestScalingGrid(t *testing.T) {
	cells := scalingCells(false)
	if len(cells) != 8 {
		t.Fatalf("full grid has %d cells, want 8", len(cells))
	}
}

// TestScalingCheckRejects exercises the check's failure arms.
func TestScalingCheckRejects(t *testing.T) {
	sc := &Scorecard{Cells: []string{"a", "b"}}
	for _, bad := range []struct {
		name string
		rows []ScoreRow
	}{
		{"no alternating row", nil},
		{"incomplete", []ScoreRow{{Strategy: "alternating", CellsOK: 1, Failed: 1, Served: 0.5}}},
		{"underserved", []ScoreRow{{Strategy: "alternating", CellsOK: 2, Served: 0.99}}},
	} {
		sc.Rows = bad.rows
		if err := scalingCheck(sc); err == nil {
			t.Errorf("scalingCheck accepted the %s scorecard", bad.name)
		}
	}
	sc.Rows = []ScoreRow{{Strategy: "alternating", CellsOK: 2, Served: 1}}
	if err := scalingCheck(sc); err != nil {
		t.Errorf("scalingCheck rejected a healthy scorecard: %v", err)
	}
}
