package trace

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/metrics"
)

func testTraceEvents() []Event {
	return []Event{
		{Cycle: 10, Kind: KindLoadIssue, Seq: 1, PC: 0x40, Line: 7},
		{Cycle: 12, Kind: KindLoadIssue, Seq: 2, PC: 0x44, Line: 9},
		{Cycle: 25, Kind: KindLoadComplete, Seq: 1, Line: 7},
		{Cycle: 30, Kind: KindSquash, Seq: 5, PC: 0x48},
		{Cycle: 31, Kind: KindFetchRedirect, PC: 0x20, Arg: 3},
		{Cycle: 32, Kind: KindCleanupInval, Line: 7},
		{Cycle: 35, Kind: KindCleanupRestore, Line: 8, Arg: 12},
		{Cycle: 40, Kind: KindSpecWindow, Seq: 1, Line: 7, Arg: 15},
		{Cycle: 41, Kind: KindCommit, Seq: 6, PC: 0x4c},
		{Cycle: 50, Kind: KindHalt, Seq: 7},
	}
}

func testSamples() []metrics.Sample {
	return []metrics.Sample{
		{Cycle: 20, Counters: map[string]uint64{"cpu.committed": 30, "cpu.squashes": 1, "l1d.misses": 2, "l1d.accesses": 8},
			Gauges: map[string]float64{"mem.pending_txns": 2}},
		{Cycle: 40, Counters: map[string]uint64{"cpu.committed": 70, "cpu.squashes": 4, "l1d.misses": 3, "l1d.accesses": 12},
			Gauges: map[string]float64{"mem.pending_txns": 0}},
	}
}

// TestBuildChromeEventsWellFormed pins the trace-event invariants the
// Chrome/Perfetto loader cares about: known phases, positive pid, a named
// tid track for every non-counter event, and metadata naming every track.
func TestBuildChromeEventsWellFormed(t *testing.T) {
	evs := buildChromeEvents(Run{Process: "cleanupspec/astar", Events: testTraceEvents(), Samples: testSamples()}, 1)
	if len(evs) == 0 {
		t.Fatal("no events built")
	}
	validPh := map[string]bool{"X": true, "i": true, "C": true, "M": true}
	namedTracks := map[int]bool{}
	for i, e := range evs {
		if !validPh[e.Ph] {
			t.Fatalf("event %d has unknown phase %q", i, e.Ph)
		}
		if e.Pid <= 0 {
			t.Fatalf("event %d has pid %d, want > 0", i, e.Pid)
		}
		if e.Ph == "M" && e.Name == "thread_name" {
			namedTracks[e.Tid] = true
		}
		if (e.Ph == "X" || e.Ph == "i") && e.Tid == 0 {
			t.Fatalf("event %d (%s) is on tid 0 (unnamed track)", i, e.Name)
		}
		if e.Ph == "i" && e.S == "" {
			t.Fatalf("instant event %d missing scope", i)
		}
	}
	for _, tid := range []int{TidLoads, TidSquashes, TidCleanups, TidWindows, TidCommits} {
		if !namedTracks[tid] {
			t.Fatalf("track %d has no thread_name metadata", tid)
		}
	}
}

func findEvent(evs []ChromeEvent, name string) (ChromeEvent, bool) {
	for _, e := range evs {
		if e.Name == name {
			return e, true
		}
	}
	return ChromeEvent{}, false
}

// counterTracks returns the counter ("C") values of evs by track name, and
// the track names in first-appearance order.
func counterTracks(evs []ChromeEvent) (map[string][]float64, []string) {
	values := map[string][]float64{}
	var order []string
	for _, e := range evs {
		if e.Ph != "C" {
			continue
		}
		if _, ok := values[e.Name]; !ok {
			order = append(order, e.Name)
		}
		values[e.Name] = append(values[e.Name], e.Args["value"].(float64))
	}
	return values, order
}

func TestBuildChromeEventsSemantics(t *testing.T) {
	samples := testSamples()
	evs := buildChromeEvents(Run{Process: "p", Events: testTraceEvents(), Samples: samples}, 1)

	// Load issue@10 + complete@25 pair into one complete event.
	load, ok := findEvent(evs, "load")
	if !ok || load.Ph != "X" || load.Ts != 10 || load.Dur != 15 || load.Tid != TidLoads {
		t.Fatalf("paired load event: %+v", load)
	}
	// The spec window (end=40, len=15) spans [25, 40] on the windows track.
	win, ok := findEvent(evs, "exposed-window")
	if !ok || win.Ph != "X" || win.Ts != 25 || win.Dur != 15 || win.Tid != TidWindows {
		t.Fatalf("exposed-window event: %+v", win)
	}
	// The restore carries its latency as duration.
	rst, ok := findEvent(evs, "cleanup-restore")
	if !ok || rst.Ph != "X" || rst.Dur != 12 || rst.Tid != TidCleanups {
		t.Fatalf("cleanup-restore event: %+v", rst)
	}
	// The load issued at 12 never completed: it must surface as in-flight,
	// not vanish.
	inflight, ok := findEvent(evs, "load-inflight")
	if !ok || inflight.Ts != 12 {
		t.Fatalf("in-flight load: %+v", inflight)
	}

	// Counter tracks, one point per sample: the gauges, then the rates
	// derived from the counters, in this order.
	tracks, order := counterTracks(evs)
	if want := []string{"mem.pending_txns", "ipc", "squash-per-kcycle", "l1d-miss-rate"}; !reflect.DeepEqual(order, want) {
		t.Fatalf("counter tracks %v, want %v", order, want)
	}
	squashes := metrics.Rates(samples, "cpu.squashes")
	for i := range squashes {
		squashes[i] *= 1000
	}
	for name, want := range map[string][]float64{
		"mem.pending_txns":  {2, 0},
		"ipc":               metrics.Rates(samples, "cpu.committed"),
		"squash-per-kcycle": squashes,
		"l1d-miss-rate":     metrics.RatioDeltas(samples, "l1d.misses", "l1d.accesses"),
	} {
		if !reflect.DeepEqual(tracks[name], want) {
			t.Errorf("counter track %s = %v, want %v", name, tracks[name], want)
		}
	}
	if got := tracks["ipc"]; got[0] != 1.5 || got[1] != 2 {
		t.Errorf("ipc track = %v, want [1.5 2]", got)
	}

	// A run without samples exports no counter track.
	if tracks, _ := counterTracks(buildChromeEvents(Run{Process: "p", Events: testTraceEvents()}, 1)); len(tracks) != 0 {
		t.Fatalf("run without samples exported counter tracks %v", tracks)
	}
}

func readChromeFile(t *testing.T, path string) []ChromeEvent {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []ChromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatalf("%s is not valid JSON: %v", path, err)
	}
	return file.TraceEvents
}

// TestWriteChromeFileValidJSON round-trips the export through a JSON
// decode and pins determinism: two exports of the same run are identical
// bytes.
func TestWriteChromeFileValidJSON(t *testing.T) {
	dir := t.TempDir()
	runs := []Run{{Process: "p", Events: testTraceEvents(), Samples: testSamples()}}
	a, b := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
	for _, path := range []string{a, b} {
		if err := WriteChromeFile(path, runs); err != nil {
			t.Fatal(err)
		}
	}
	da, err := os.ReadFile(a)
	if err != nil {
		t.Fatal(err)
	}
	db, err := os.ReadFile(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(da, db) {
		t.Fatal("export is not deterministic")
	}
	var file struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		Unit        string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(da, &file); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if len(file.TraceEvents) == 0 || file.Unit == "" {
		t.Fatal("export missing traceEvents or displayTimeUnit")
	}
	for i, e := range file.TraceEvents {
		for _, field := range []string{"name", "ph", "pid", "tid"} {
			if _, ok := e[field]; !ok {
				t.Fatalf("event %d missing %q: %v", i, field, e)
			}
		}
	}

	if err := WriteChromeFile(filepath.Join(dir, "missing-dir", "t.json"), runs); err == nil {
		t.Fatal("WriteChromeFile into a missing directory returned nil")
	}
}

// TestWriteChromeFileProcesses checks per-policy process separation: two
// runs merge into one file as processes 1 and 2 in list order, each with
// its own process_name, and pre-built events keep the pid they carry.
func TestWriteChromeFileProcesses(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pair.json")
	span := ChromeEvent{Name: "simulate", Ph: "X", Ts: 1, Dur: 2, Pid: 9, Tid: 1}
	err := WriteChromeFile(path, []Run{
		{Process: "nonsecure/astar", Events: testTraceEvents()},
		{Process: "cleanupspec/astar", Events: testTraceEvents()},
	}, span)
	if err != nil {
		t.Fatal(err)
	}
	evs := readChromeFile(t, path)
	pids := map[int]string{}
	for _, e := range evs {
		if e.Ph == "M" && e.Name == "process_name" {
			pids[e.Pid] = e.Args["name"].(string)
		}
	}
	if len(pids) != 2 || pids[1] != "nonsecure/astar" || pids[2] != "cleanupspec/astar" {
		t.Fatalf("process tracks: %v", pids)
	}
	if last := evs[len(evs)-1]; last.Name != "simulate" || last.Pid != 9 {
		t.Fatalf("pre-built event not appended as given: %+v", last)
	}
}
