package metrics

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// WriteSeriesFile writes the time series to path: CSV when the name ends
// in ".csv", JSON Lines otherwise. A failed Close (a lost final flush) is
// returned like a failed write.
func WriteSeriesFile(path string, samples []Sample) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if strings.HasSuffix(path, ".csv") {
		err = WriteCSV(f, samples)
	} else {
		err = WriteJSONL(f, samples)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// WriteJSONL writes the time series as JSON Lines: one Sample object per
// line, counters cumulative (so the last line's counters are the run's
// end-of-run aggregates). Map keys are marshaled in Go's sorted-key JSON
// order, making the output byte-stable for a deterministic run.
func WriteJSONL(w io.Writer, samples []Sample) error {
	enc := json.NewEncoder(w)
	for _, s := range samples {
		if err := enc.Encode(s); err != nil {
			return fmt.Errorf("metrics: writing jsonl: %w", err)
		}
	}
	return nil
}

// WriteCSV writes the time series as CSV: a header of `cycle`, every
// counter name, then every gauge name (both sorted), followed by one row
// per sample. Counters are cumulative, gauges instantaneous.
func WriteCSV(w io.Writer, samples []Sample) error {
	if len(samples) == 0 {
		return nil
	}
	counterNames := sortedKeys(samples[0].Counters)
	gaugeNames := sortedKeys(samples[0].Gauges)
	cw := csv.NewWriter(w)
	header := append([]string{"cycle"}, counterNames...)
	header = append(header, gaugeNames...)
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("metrics: writing csv: %w", err)
	}
	row := make([]string, 0, len(header))
	for _, s := range samples {
		row = row[:0]
		row = append(row, strconv.FormatUint(s.Cycle, 10))
		for _, n := range counterNames {
			row = append(row, strconv.FormatUint(s.Counters[n], 10))
		}
		for _, n := range gaugeNames {
			row = append(row, strconv.FormatFloat(s.Gauges[n], 'g', -1, 64))
		}
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("metrics: writing csv: %w", err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("metrics: writing csv: %w", err)
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
