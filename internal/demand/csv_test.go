package demand

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestParseTraceCSV(t *testing.T) {
	src := `hour,vidA,vidB,vidA_pred
0,10,20,9.5
1,11,19,
2,12.5,18,13
`
	tr, names, err := ParseTraceCSV(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != "vidA" || names[1] != "vidB" {
		t.Fatalf("names = %v", names)
	}
	if tr.Hours() != 3 || tr.NumVideos() != 2 {
		t.Fatalf("dims = %dx%d", tr.Hours(), tr.NumVideos())
	}
	if tr.Views[2][0] != 12.5 || tr.Views[0][1] != 20 {
		t.Errorf("values wrong: %v", tr.Views)
	}
}

func TestParseTraceCSVErrors(t *testing.T) {
	cases := map[string]string{
		"empty":       "",
		"only header": "hour,a",
		"no videos":   "hour\n0\n",
		"bad value":   "hour,a\n0,x\n",
		"negative":    "hour,a\n0,-1\n",
		"NaN":         "hour,a\n0,NaN\n",
		"+Inf":        "hour,a\n0,+Inf\n",
		"-Inf":        "hour,a\n0,-Inf\n",
		"overflow":    "hour,a\n0,1e999\n",
		"empty name":  "hour,,b\n0,1,2\n",
	}
	for name, src := range cases {
		if _, _, err := ParseTraceCSV(strings.NewReader(src)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestTraceCSVRoundTrip(t *testing.T) {
	orig := SynthesizeTrace(TopVideos(3), 24, 5)
	names := []string{"a", "b", "c"}
	var buf bytes.Buffer
	if err := WriteTraceCSV(&buf, orig, names); err != nil {
		t.Fatal(err)
	}
	back, gotNames, err := ParseTraceCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotNames) != 3 {
		t.Fatalf("names = %v", gotNames)
	}
	if back.Hours() != orig.Hours() || back.NumVideos() != orig.NumVideos() {
		t.Fatalf("dims changed: %dx%d", back.Hours(), back.NumVideos())
	}
	for h := range orig.Views {
		for v := range orig.Views[h] {
			if back.Views[h][v] != orig.Views[h][v] {
				t.Fatalf("value changed at (%d,%d): %v vs %v", h, v, back.Views[h][v], orig.Views[h][v])
			}
		}
	}
	if err := WriteTraceCSV(&bytes.Buffer{}, orig, []string{"a"}); err == nil {
		t.Error("wrong name count accepted")
	}
}

// FuzzParseTraceCSV feeds arbitrary text to the trace parser. It must
// never panic; every accepted trace must hold finite, non-negative views;
// and writing an accepted trace back out and re-parsing it must return
// identical views and names.
func FuzzParseTraceCSV(f *testing.F) {
	for _, seed := range []string{
		"hour,vidA,vidB,vidA_pred\n0,10,20,9.5\n1,11,19,\n2,12.5,18,13\n",
		"hour,a\n0,NaN\n",
		"hour,a\n0,+Inf\n",
		"hour,a\n0,-1\n",
		"hour,a\n0,1e308\n1,4.9e-324\n",
		"a,b\n1,2\n",
		"hour,\"x,y\",z\n0, 1 ,2\n",
		"hour,,b\n0,1,2\n",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		tr, names, err := ParseTraceCSV(strings.NewReader(src))
		if err != nil {
			return
		}
		for h, row := range tr.Views {
			if len(row) != len(names) {
				t.Fatalf("hour %d has %d views for %d names", h, len(row), len(names))
			}
			for v, x := range row {
				if x < 0 || math.IsNaN(x) || math.IsInf(x, 0) {
					t.Fatalf("accepted views %v at (%d,%d)", x, h, v)
				}
			}
		}
		var buf bytes.Buffer
		if err := WriteTraceCSV(&buf, tr, names); err != nil {
			t.Fatalf("write back: %v", err)
		}
		back, backNames, err := ParseTraceCSV(&buf)
		if err != nil {
			t.Fatalf("re-parse %q: %v", buf.String(), err)
		}
		if strings.Join(backNames, "\x00") != strings.Join(names, "\x00") {
			t.Fatalf("names %q came back as %q", names, backNames)
		}
		if back.Hours() != tr.Hours() {
			t.Fatalf("%d hours came back as %d", tr.Hours(), back.Hours())
		}
		for h := range tr.Views {
			for v, x := range tr.Views[h] {
				if back.Views[h][v] != x {
					t.Fatalf("views (%d,%d) %v came back as %v", h, v, x, back.Views[h][v])
				}
			}
		}
	})
}
