package main

import (
	"encoding/json"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/sim"
)

// agedCache runs a two-cell grid into a fresh cache and backdates every
// file a year, so any age-based gc would evict every entry.
func agedCache(t *testing.T) (*campaign.Cache, string) {
	t.Helper()
	dir := t.TempDir()
	cache, err := campaign.OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	g := campaign.Grid{
		Name:         "gc",
		Workloads:    []string{"gcc", "mcf"},
		Policies:     []sim.Policy{sim.CleanupSpec},
		Instructions: 500,
	}
	eng := campaign.NewEngine()
	eng.Cache = cache
	eng.Reporter = campaign.NewReporter(io.Discard)
	if n := len(campaign.Failed(eng.Run(g.Jobs()))); n != 0 {
		t.Fatalf("%d fixture jobs failed", n)
	}
	old := time.Now().Add(-365 * 24 * time.Hour)
	err = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		return os.Chtimes(path, old, old)
	})
	if err != nil {
		t.Fatal(err)
	}
	return cache, dir
}

func cacheLen(t *testing.T, cache *campaign.Cache) int {
	t.Helper()
	n, err := cache.Len()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestGCScopingFlagsRequireGrid: -workloads/-policies/-seeds/-instructions
// narrow -grid. Without -grid, gc must refuse rather than drop them and
// evict by age alone.
func TestGCScopingFlagsRequireGrid(t *testing.T) {
	cache, dir := agedCache(t)
	for _, flagArgs := range [][]string{
		{"-workloads", "mcf"},
		{"-policies", "cleanupspec"},
		{"-seeds", "1..2"},
		{"-instructions", "500"},
	} {
		args := append([]string{"-cache", dir, "-max-age", "720h"}, flagArgs...)
		err := cmdGC(args)
		if err == nil || !strings.Contains(err.Error(), flagArgs[0]) || !strings.Contains(err.Error(), "-grid") {
			t.Errorf("gc %v: err = %v, want an error naming %s and -grid", flagArgs, err, flagArgs[0])
		}
		if got := cacheLen(t, cache); got != 2 {
			t.Fatalf("gc %v evicted entries: %d left, want 2", flagArgs, got)
		}
	}

	// Without a stray flag the same cache is evicted by age, so the
	// refusals above are what kept the entries.
	if err := cmdGC([]string{"-cache", dir, "-max-age", "720h"}); err != nil {
		t.Fatal(err)
	}
	if got := cacheLen(t, cache); got != 0 {
		t.Errorf("age-only gc left %d entries, want 0", got)
	}
}

// TestReplayTraceOutWritesPerfetto: `replay -trace-out <file>` writes the
// same Perfetto JSON as the other CLIs' -trace-out, one process named
// after the replayed job, and an unwritable path is an error.
func TestReplayTraceOutWritesPerfetto(t *testing.T) {
	dir := t.TempDir()
	dump := filepath.Join(dir, "dump.json")
	data := `{"job":{"workload":"gcc","config":{"Policy":"cleanupspec","Instructions":1000}},"key":"k","panic":"p"}`
	if err := os.WriteFile(dump, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "replay.trace.json")
	if err := cmdReplay([]string{"-trace-out", out, dump}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatalf("replay trace is not JSON: %v", err)
	}
	evs := file.TraceEvents
	if len(evs) < 2 || evs[0].Name != "process_name" || evs[0].Args["name"] != "gcc/cleanupspec" {
		t.Fatalf("replay trace: %d events, first %+v; want a gcc/cleanupspec process with events", len(evs), evs)
	}
	if err := cmdReplay([]string{"-trace-out", filepath.Join(dir, "missing", "t.json"), dump}); err == nil {
		t.Fatal("replay into a missing directory returned nil")
	}
}
