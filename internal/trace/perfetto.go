package trace

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"repro/internal/metrics"
	"repro/internal/stats"
)

// ChromeEvent is one trace-event-format record (the JSON the Chrome
// tracing UI and Perfetto load). Ph is the event phase: "X" complete,
// "i" instant, "C" counter, "M" metadata. Ts and Dur are in microseconds;
// the exporter maps one simulated cycle to one microsecond so cycle
// arithmetic survives the viewer round trip unscaled.
type ChromeEvent struct {
	Name string `json:"name"`
	Ph   string `json:"ph"`
	Ts   uint64 `json:"ts"`
	Dur  uint64 `json:"dur,omitempty"`
	Pid  int    `json:"pid"`
	Tid  int    `json:"tid"`
	Cat  string `json:"cat,omitempty"`
	S    string `json:"s,omitempty"`
	// The trace-event spec requires heterogeneous args; this export is a
	// viewer artifact, never journaled, checksummed, or re-read.
	Args map[string]any `json:"args,omitempty"` //simlint:allow wireenc -- Chrome trace viewer schema; write-only export, not a journal
}

// chromeTraceFile is the JSON Object Format of the trace-event spec.
type chromeTraceFile struct {
	TraceEvents     []ChromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// Track (thread) ids within one exported process.
const (
	TidLoads = iota + 1
	TidSquashes
	TidCleanups
	TidWindows
	TidCommits
)

// trackNames labels the fixed tracks (indexed by tid; 0 unused).
var trackNames = [...]string{"", "loads", "squashes", "cleanups", "exposed-windows", "commits"}

// Run is one simulation exported as one Perfetto process.
type Run struct {
	// Process labels the process track ("cleanupspec/astar").
	Process string
	// Events is the run's structured event trace (Ring.Events()).
	Events []Event
	// Samples, when non-empty, adds a counter track for every gauge in the
	// series plus the derived ipc, squash-per-kcycle and l1d-miss-rate
	// tracks.
	Samples []metrics.Sample
}

// WriteChromeFile writes the runs to path as trace-event JSON (object
// form, with displayTimeUnit set so one cycle reads as one microsecond).
// Run i becomes process i+1, so per-policy squash/cleanup/window tracks
// sit side by side in the Perfetto UI. Pre-built events (campaign spans
// from internal/obs) follow the runs under their own pids. A failed Close
// (a lost final flush) is returned like a failed write.
func WriteChromeFile(path string, runs []Run, events ...ChromeEvent) error {
	var all []ChromeEvent
	for i, r := range runs {
		all = append(all, buildChromeEvents(r, i+1)...)
	}
	all = append(all, events...)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", " ")
	if err = enc.Encode(chromeTraceFile{TraceEvents: all, DisplayTimeUnit: "ms"}); err != nil {
		err = fmt.Errorf("trace: writing chrome trace: %w", err)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// buildChromeEvents converts one run into trace-event records under pid.
// Loads become complete ("X") events by pairing each load-issue with its
// load-complete on the same sequence number; speculation windows
// (KindSpecWindow, Arg = length) become complete events on their own
// track; cleanup restores carry their latency as the duration; everything
// else becomes an instant.
func buildChromeEvents(r Run, pid int) []ChromeEvent {
	var out []ChromeEvent
	meta := func(name string, tid int, args map[string]any) {
		out = append(out, ChromeEvent{Name: name, Ph: "M", Pid: pid, Tid: tid, Args: args})
	}
	meta("process_name", 0, map[string]any{"name": r.Process})
	for tid, name := range trackNames {
		if tid > 0 {
			meta("thread_name", tid, map[string]any{"name": name})
		}
	}

	// Pair load-issue with load-complete by sequence number. The ring is
	// chronological, so an open issue is completed by the next matching
	// complete event.
	openIssue := make(map[uint64]Event)
	instant := func(e Event, tid int, name string, args map[string]any) {
		out = append(out, ChromeEvent{
			Name: name, Ph: "i", Ts: uint64(e.Cycle), Pid: pid, Tid: tid,
			S: "t", Cat: e.Kind.String(), Args: args,
		})
	}
	for _, e := range r.Events {
		switch e.Kind {
		case KindLoadIssue:
			openIssue[e.Seq] = e
		case KindLoadComplete:
			iss, ok := openIssue[e.Seq]
			if !ok {
				// Completion of a load whose issue predates the ring.
				instant(e, TidLoads, "load-complete", map[string]any{"seq": e.Seq, "line": uint64(e.Line)})
				continue
			}
			delete(openIssue, e.Seq)
			out = append(out, ChromeEvent{
				//simlint:allow cyclemath -- the trace ring preserves emission order: a load's completion event never precedes its issue event
				Name: "load", Ph: "X", Ts: uint64(iss.Cycle), Dur: uint64(e.Cycle - iss.Cycle),
				Pid: pid, Tid: TidLoads, Cat: "load",
				Args: map[string]any{"seq": e.Seq, "pc": uint64(iss.PC), "line": uint64(e.Line)},
			})
		case KindLoadDropped:
			instant(e, TidCleanups, "fill-dropped", map[string]any{"seq": e.Seq, "line": uint64(e.Line)})
		case KindSquash:
			instant(e, TidSquashes, "squash", map[string]any{"seq": e.Seq, "pc": uint64(e.PC)})
		case KindMemOrderSquash:
			instant(e, TidSquashes, "mem-order-squash", map[string]any{"seq": e.Seq, "pc": uint64(e.PC)})
		case KindFetchRedirect:
			instant(e, TidSquashes, "fetch-redirect", map[string]any{"pc": uint64(e.PC), "squashed_loads": e.Arg})
		case KindCleanupInval:
			instant(e, TidCleanups, "cleanup-inval", map[string]any{"line": uint64(e.Line)})
		case KindCleanupRestore:
			out = append(out, ChromeEvent{
				Name: "cleanup-restore", Ph: "X", Ts: uint64(e.Cycle), Dur: e.Arg,
				Pid: pid, Tid: TidCleanups, Cat: "cleanup",
				Args: map[string]any{"line": uint64(e.Line)},
			})
		case KindSpecWindow:
			start := uint64(e.Cycle) - e.Arg
			out = append(out, ChromeEvent{
				Name: "exposed-window", Ph: "X", Ts: start, Dur: e.Arg,
				Pid: pid, Tid: TidWindows, Cat: "window",
				Args: map[string]any{"seq": e.Seq, "line": uint64(e.Line)},
			})
		case KindCommit:
			instant(e, TidCommits, "commit", map[string]any{"seq": e.Seq, "pc": uint64(e.PC)})
		case KindHalt:
			instant(e, TidCommits, "halt", map[string]any{"seq": e.Seq})
		default:
			instant(e, TidCommits, e.Kind.String(), map[string]any{"seq": e.Seq, "arg": e.Arg})
		}
	}
	// Loads still in flight at the end of the trace window, in sequence
	// order so the export is byte-stable for a deterministic run.
	inflight := make([]Event, 0, len(openIssue))
	for _, iss := range openIssue {
		inflight = append(inflight, iss)
	}
	sort.Slice(inflight, func(i, j int) bool { return inflight[i].Seq < inflight[j].Seq })
	for _, iss := range inflight {
		instant(iss, TidLoads, "load-inflight", map[string]any{"seq": iss.Seq, "line": uint64(iss.Line)})
	}

	// Counter tracks: the gauges, then the rates derived from counters.
	if len(r.Samples) == 0 {
		return out
	}
	counter := func(name string, values func(i int) float64) {
		for i, s := range r.Samples {
			out = append(out, ChromeEvent{Name: name, Ph: "C", Ts: s.Cycle, Pid: pid, Args: map[string]any{"value": values(i)}})
		}
	}
	for _, name := range stats.SortedKeys(r.Samples[0].Gauges) {
		counter(name, func(i int) float64 { return r.Samples[i].Gauges[name] })
	}
	ipc := metrics.Rates(r.Samples, "cpu.committed")
	squashes := metrics.Rates(r.Samples, "cpu.squashes")
	missRate := metrics.RatioDeltas(r.Samples, "l1d.misses", "l1d.accesses")
	counter("ipc", func(i int) float64 { return ipc[i] })
	counter("squash-per-kcycle", func(i int) float64 { return squashes[i] * 1000 })
	counter("l1d-miss-rate", func(i int) float64 { return missRate[i] })
	return out
}
