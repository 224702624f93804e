package campaign

import (
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"repro/sim"
)

// TestReplayReproducesQuarantinedCell: a cell that simulates and then
// panics deterministically is quarantined with a dump that carries no
// event history (the campaign run is untraced); LoadDump + Replay
// re-runs it under a full-depth tracer, reproduces the panic, and
// returns the whole event history.
func TestReplayReproducesQuarantinedCell(t *testing.T) {
	const kind = CellKind("sim-then-panic")
	var traced []bool
	cell := func(job Job) (sim.Result, json.RawMessage, error) {
		traced = append(traced, job.Config.Trace != nil)
		res, err := sim.RunWorkload(job.Workload, job.Config)
		if err != nil {
			return sim.Result{}, nil, err
		}
		panic(fmt.Sprintf("sim-then-panic: invariant broken after %d cycles", res.Cycles))
	}

	dir := t.TempDir()
	cache, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine()
	eng.sleep = func(time.Duration) {}
	eng.Cache = cache
	eng.RegisterCell(kind, cell)
	job := Job{Kind: kind, Workload: "gcc", Config: sim.Config{Policy: sim.CleanupSpec, Instructions: 2_000}}
	r := eng.RunJob(job)
	if !r.Quarantined || r.DumpPath == "" {
		t.Fatalf("campaign run: quarantined=%v dump=%q err=%v, want a quarantined cell with a dump", r.Quarantined, r.DumpPath, r.Err)
	}

	dump, err := LoadDump(r.DumpPath)
	if err != nil {
		t.Fatal(err)
	}
	if dump.Key != r.Key || dump.Job.Kind != kind || dump.Panic == "" || dump.Stack == "" || len(dump.Metrics) == 0 {
		t.Fatalf("dump missing evidence: key=%q kind=%q panic=%q stack=%d bytes, %d counters",
			dump.Key, dump.Job.Kind, dump.Panic, len(dump.Stack), len(dump.Metrics))
	}

	replay := NewReplayEngine()
	replay.RegisterCell(kind, cell)
	rep, err := Replay(replay, dump, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Reproduced {
		t.Fatalf("replay did not reproduce the panic: %+v", rep.Result)
	}
	if len(rep.Events) == 0 || rep.Dropped != 0 {
		t.Fatalf("replay captured %d event(s), dropped %d; want a complete, non-empty history", len(rep.Events), rep.Dropped)
	}
	if len(traced) != 2 || traced[0] || !traced[1] {
		t.Fatalf("cell saw a tracer per run = %v, want [false true] (campaign untraced, replay traced)", traced)
	}
}
