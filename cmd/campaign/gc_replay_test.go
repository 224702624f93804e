package main

import (
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
