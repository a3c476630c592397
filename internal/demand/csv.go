package demand

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// ParseTraceCSV reads a per-hour view trace from CSV, the format
// cmd/demandgen emits and the natural shape of a collected trace like the
// paper's: a header row "hour,<video_id>,<video_id>,..." followed by one
// row per hour. Prediction columns (suffix "_pred") and the hour column
// are ignored; every remaining column becomes one video series. Values
// must be finite and non-negative.
func ParseTraceCSV(r io.Reader) (*Trace, []string, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	header, err := cr.Read()
	if err != nil {
		return nil, nil, fmt.Errorf("demand: trace csv header: %w", err)
	}
	var cols []int
	var names []string
	for c, h := range header {
		h = strings.TrimSpace(h)
		if c == 0 && strings.EqualFold(h, "hour") {
			continue
		}
		if strings.HasSuffix(h, "_pred") {
			continue
		}
		if h == "" {
			return nil, nil, fmt.Errorf("demand: trace csv: empty header in column %d", c)
		}
		cols = append(cols, c)
		names = append(names, h)
	}
	if len(cols) == 0 {
		return nil, nil, fmt.Errorf("demand: trace csv: no video columns")
	}
	var views [][]float64
	row := 1
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, nil, fmt.Errorf("demand: trace csv row %d: %w", row, err)
		}
		hour := make([]float64, len(cols))
		for k, c := range cols {
			if c >= len(rec) {
				return nil, nil, fmt.Errorf("demand: trace csv row %d: missing column %d", row, c)
			}
			cell := strings.TrimSpace(rec[c])
			if cell == "" {
				continue // absent value reads as zero views
			}
			v, err := strconv.ParseFloat(cell, 64)
			if err != nil {
				return nil, nil, fmt.Errorf("demand: trace csv row %d col %d: %w", row, c, err)
			}
			if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, nil, fmt.Errorf("demand: trace csv row %d col %d: views %v, want finite and non-negative", row, c, v)
			}
			hour[k] = v
		}
		views = append(views, hour)
		row++
	}
	if len(views) == 0 {
		return nil, nil, fmt.Errorf("demand: trace csv: no data rows")
	}
	return &Trace{Views: views}, names, nil
}

// WriteTraceCSV emits the trace in the same format ParseTraceCSV reads.
func WriteTraceCSV(w io.Writer, t *Trace, names []string) error {
	if len(names) != t.NumVideos() {
		return fmt.Errorf("demand: %d names for %d videos", len(names), t.NumVideos())
	}
	cw := csv.NewWriter(w)
	header := append([]string{"hour"}, names...)
	if err := cw.Write(header); err != nil {
		return err
	}
	for h := 0; h < t.Hours(); h++ {
		rec := make([]string, 1+t.NumVideos())
		rec[0] = strconv.Itoa(h)
		for v := 0; v < t.NumVideos(); v++ {
			rec[v+1] = strconv.FormatFloat(t.Views[h][v], 'f', -1, 64)
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
