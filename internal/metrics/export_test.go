package metrics

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestWriteSeriesFile(t *testing.T) {
	dir := t.TempDir()
	samples := []Sample{
		{Cycle: 100, Counters: map[string]uint64{"cpu.committed": 40}, Gauges: map[string]float64{"rob.occupancy": 3}},
		{Cycle: 200, Counters: map[string]uint64{"cpu.committed": 90}, Gauges: map[string]float64{"rob.occupancy": 5}},
	}
	for _, c := range []struct {
		name, firstLine string
		lines           int
	}{
		{"series.csv", "cycle,cpu.committed,rob.occupancy", 3},
		{"series.jsonl", `{"cycle":100,`, 2},
	} {
		path := filepath.Join(dir, c.name)
		if err := WriteSeriesFile(path, samples); err != nil {
			t.Fatalf("WriteSeriesFile(%s): %v", c.name, err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
		if !strings.HasPrefix(lines[0], c.firstLine) || len(lines) != c.lines {
			t.Errorf("%s: got %q, want %d lines, the first starting %q", c.name, data, c.lines, c.firstLine)
		}
	}
}

func TestWriteSeriesFileUnwritablePath(t *testing.T) {
	path := filepath.Join(t.TempDir(), "missing-dir", "series.jsonl")
	if err := WriteSeriesFile(path, []Sample{{Cycle: 1}}); err == nil {
		t.Fatalf("WriteSeriesFile(%s) = nil, want an error for a path in a missing directory", path)
	}
}
