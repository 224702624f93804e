package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/campaign"
	"repro/internal/cpu"
	"repro/internal/memsys"
	"repro/internal/obs"
	"repro/internal/specfuzz"
	"repro/sim"
)

// tracedMain produces the per-layer metrics. It runs the workload three
// ways: untraced cold runs under a CPU profile for half of dur (the
// profile shares, GC cost, and the untraced wall the tracing overhead is
// measured against), then traced cold runs for the other half (engine
// spans, and for the grids every cell rebuilt from public pieces with
// timed layers), then the layer probes.
func tracedMain(w workload, dir string, seed uint64, dur time.Duration) (result, error) {
	out := map[string]float64{}

	// Phase 1: untraced cold runs, profiled.
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return result{}, err
	}
	gc0 := readGC()
	var untraced []campaign.JobResult
	rs, err := measureReps(w, filepath.Join(dir, "untraced"), seed, dur/2, func(p *prepared, cold coldRun, _ checked) {
		if untraced == nil {
			untraced = cold.results
			out["campaign.cache_bytes_per_cell"] = float64(dirBytes(p.dir)) / float64(len(p.jobs))
		}
	})
	pprof.StopCPUProfile()
	if err != nil {
		return result{}, err
	}
	gc1 := readGC()
	untracedWall := median(rs.wall)
	out["runtime.gc_cycles"] = (gc1.cycles - gc0.cycles) / float64(len(rs.wall)+warmupReps)
	out["runtime.gc_cpu_frac"] = ratio(gc1.gcCPU-gc0.gcCPU, gc1.totalCPU-gc0.totalCPU)
	out["campaign.warm_rerun_s"] = median(rs.warmWall)
	p, err := parseCPUProfile(prof.Bytes())
	if err != nil {
		return result{}, err
	}
	profileShares(p, out)

	// Phase 2: traced cold runs.
	tr, err := tracedReps(w, filepath.Join(dir, "traced"), seed, dur/2, untraced)
	if err != nil {
		return result{}, err
	}
	var walls []float64
	for _, r := range tr.runs {
		walls = append(walls, r.wall.Seconds())
	}
	out["trace.overhead_frac"] = median(walls)/untracedWall - 1
	tr.report(out)
	if !w.fuzz() {
		out["sim.minstr_per_s"] = median(rs.minstrPerS)
	} else {
		out["sim.minstr_per_s"] = float64(tr.fuzzCommits) / 1e6 / untracedWall
		out["specfuzz.effective"] = float64(rs.effective)
		out["specfuzz.survivors"] = float64(rs.survivors)
	}
	simulatedCounts(w, untraced, tr, out)

	// Phase 3: layer probes.
	for k, v := range layerProbes(seed) {
		out[k] = v
	}

	res := rs.result(perLayer, out)
	res.Attempted += tr.attempted
	res.Failed += tr.failed
	if len(tr.problems) > 0 || tr.failed > 0 {
		res.Correct = false
		for _, pr := range tr.problems {
			fmt.Fprintln(os.Stderr, "simbench: traced check failed:", pr)
		}
	}
	return res, nil
}

// gcReading is a snapshot of the runtime's GC counters.
type gcReading struct{ cycles, gcCPU, totalCPU float64 }

func readGC() gcReading {
	s := []metrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		default:
			return 0
		}
	}
	return gcReading{cycles: val(0), gcCPU: val(1), totalCPU: val(2)}
}

// profileShares attributes the untraced runs' CPU samples to layers: the
// share of samples with a frame in the named function (inclusive), and
// for duffcopy the share where it is the innermost frame.
func profileShares(p *cpuProfile, out map[string]float64) {
	cpuFn := func(m string) func(string) bool { return is("repro/internal/cpu.(*Machine)." + m) }
	out["cpu.fetch_frac"] = p.inclusive(cpuFn("fetch"))
	out["cpu.dispatch_frac"] = p.inclusive(cpuFn("dispatch"))
	out["cpu.issue_frac"] = p.inclusive(cpuFn("issue"))
	out["cpu.execute_frac"] = p.inclusive(cpuFn("execute"))
	out["cpu.commit_frac"] = p.inclusive(cpuFn("commit"))
	out["cpu.squash_frac"] = p.inclusive(cpuFn("doSquash"))
	out["cpu.new_frac"] = p.inclusive(is("repro/internal/cpu.New"))
	out["runtime.copy_frac"] = p.flat("runtime.duffcopy")
	out["runtime.malloc_frac"] = p.inclusive(is("runtime.mallocgc"))
	out["trace.emit_frac"] = p.inclusive(hasPrefix("repro/internal/trace.(*Ring)."))
	out["memsys.load_frac"] = p.inclusive(is("repro/internal/memsys.(*Hierarchy).Load"))
	out["memsys.new_frac"] = p.inclusive(is("repro/internal/memsys.New"))
	out["cache.frac"] = p.inclusive(hasPrefix("repro/internal/cache."))
}

// tracedResult is what the traced runs measured.
type tracedResult struct {
	workers int
	timings []simTiming // one per rebuilt simulation
	// timedRuns is how many workload runs the timings cover.
	timedRuns int
	fuzzSims  []fuzzSim
	// fuzzCommits is the committed instructions of one fuzz run's
	// simulations (the rebuild reproduces all of them).
	fuzzCommits uint64

	attempted, failed int
	problems          []string
	runs              []spanRun
}

// spanRun is one traced run's spans and wall time.
type spanRun struct {
	spans []obs.Span
	wall  time.Duration
}

func (t *tracedResult) fail(why string) {
	t.failed++
	if len(t.problems) < 8 {
		t.problems = append(t.problems, why)
	}
}

// tracedReps runs the workload with the engine's span tracer on until dur
// has passed (at least once). Grid cells run as rebuildKind cells, each
// compared against the untraced run's result for the same job. Fuzz cells
// run through specfuzz's own traced oracle; afterwards every pair of the
// first run is rebuilt outside the engine and checked against its
// verdict.
func tracedReps(w workload, dir string, seed uint64, dur time.Duration, untraced []campaign.JobResult) (*tracedResult, error) {
	tr := &tracedResult{}
	start := time.Now()
	var fuzzRun []campaign.JobResult
	var fuzzSpecs []specfuzz.GadgetSpec
	for i := 0; i == 0 || time.Since(start) < dur; i++ {
		runtime.GC()
		sink := obs.NewSink()
		sink.MaxSpans = 1 << 22
		p, err := w.prepare(filepath.Join(dir, fmt.Sprintf("rep%d", i)), seed, obs.NewTracer(sink))
		if err != nil {
			return nil, err
		}
		tr.workers = p.eng.Workers
		if !w.fuzz() {
			p.eng.RegisterCell(rebuildKind, rebuildCell)
			for j := range p.jobs {
				p.jobs[j].Kind = rebuildKind
			}
		}
		cold := p.run()
		tr.runs = append(tr.runs, spanRun{spans: sink.Spans(), wall: cold.wall})
		if d := sink.Stats().Dropped; d > 0 {
			tr.problems = append(tr.problems, fmt.Sprintf("span sink dropped %d spans", d))
		}
		tr.attempted += len(cold.results)
		for j, jr := range cold.results {
			switch {
			case jr.Err != nil:
				tr.fail(fmt.Sprintf("%s: %v", jr.Job, jr.Err))
			case w.fuzz():
				if j >= len(untraced) || !sameVerdict(jr, untraced[j]) {
					tr.fail(fmt.Sprintf("%s: traced verdict differs from the untraced run", jr.Job))
				}
			default:
				var tm simTiming
				if err := json.Unmarshal(jr.Aux, &tm); err != nil {
					tr.fail(fmt.Sprintf("%s: %v", jr.Job, err))
					continue
				}
				if j >= len(untraced) || !resultsEqual(jr.Result, untraced[j].Result) {
					tr.fail(fmt.Sprintf("%s: rebuilt cell does not reproduce sim.RunWorkload", jr.Job))
					continue
				}
				tr.timings = append(tr.timings, tm)
			}
		}
		if w.fuzz() && fuzzRun == nil {
			fuzzRun, fuzzSpecs = cold.results, p.specs
		}
		p.close()
	}
	tr.timedRuns = len(tr.runs)
	if w.fuzz() {
		rebuildFuzz(tr, fuzzSpecs, fuzzRun, seed)
		tr.timedRuns = 1
	}
	return tr, nil
}

// rebuildFuzz rebuilds every differential pair of one fuzz run, timing
// the simulator layers the engine-level trace cannot see.
func rebuildFuzz(tr *tracedResult, specs []specfuzz.GadgetSpec, results []campaign.JobResult, seed uint64) {
	pols := sim.Policies()
	for gi, s := range specs {
		for pi, pol := range pols {
			jr := results[gi*len(pols)+pi]
			tr.attempted++
			v, err := specfuzz.DecodeVerdict(jr.Aux)
			if err != nil {
				tr.fail(fmt.Sprintf("%s: %v", jr.Job, err))
				continue
			}
			sims, err := rebuildPair(s, sim.Config{Policy: pol, Seed: seed}, v)
			if err != nil {
				tr.fail(err.Error())
				continue
			}
			for i := range sims {
				tr.timings = append(tr.timings, sims[i].timing)
				tr.fuzzCommits += sims[i].timing.Commits
				sims[i].snap = memsys.Snapshot{} // compared already; do not retain
			}
			tr.fuzzSims = append(tr.fuzzSims, sims...)
		}
	}
}

// sameVerdict compares two fuzz cells' decoded verdicts.
func sameVerdict(a, b campaign.JobResult) bool {
	ha, errA := cellHash(a, true)
	hb, errB := cellHash(b, true)
	return errA == nil && errB == nil && ha == hb
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, ierr := d.Info(); ierr == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

// report derives the campaign, sim, cpu-timing, policy and specfuzz
// metrics from the traced runs.
func (t *tracedResult) report(out map[string]float64) {
	var simulate, probe, write, journal, idle, tail float64
	var pairs, timing, state, compare []float64
	for _, r := range t.runs {
		var busy float64
		var lastLease, lastEnd int64
		for _, sp := range r.spans {
			d := float64(sp.DurNs)
			switch {
			case sp.Name == "simulate":
				simulate += d / 1e9
			case sp.Name == "cache-probe":
				probe += d / 1e6
			case sp.Name == "verify":
				write += d / 1e6
			case sp.Name == "journal-append":
				journal += d / 1e6
			case sp.Name == "lease":
				lastLease = max(lastLease, sp.StartNs)
			case sp.Name == "timing-a" || sp.Name == "timing-b":
				timing = append(timing, d)
			case sp.Name == "state-a" || sp.Name == "state-b":
				state = append(state, d)
			case sp.Name == "compare":
				compare = append(compare, d)
			case sp.Parent == 0 && strings.HasPrefix(sp.Name, "oracle:"):
				pairs = append(pairs, d/1e6)
			case sp.Parent == 0:
				busy += d
				lastEnd = max(lastEnd, sp.StartNs+sp.DurNs)
			}
		}
		idle += 1 - busy/(float64(t.workers)*float64(r.wall))
		tail += float64(lastEnd-lastLease) / 1e9
	}
	n := float64(len(t.runs))
	out["campaign.simulate_s"] = simulate / n
	out["campaign.cache_probe_ms"] = probe / n
	out["campaign.cache_write_ms"] = write / n
	out["campaign.journal_ms"] = journal / n
	out["campaign.idle_frac"] = idle / n
	out["campaign.tail_s"] = tail / n

	if len(pairs) > 0 {
		sum := func(xs []float64) (s float64) {
			for _, x := range xs {
				s += x
			}
			return s
		}
		total := sum(pairs) * 1e6
		out["specfuzz.pair_ms_p50"] = median(pairs)
		out["specfuzz.pair_ms_p99"] = percentile(pairs, 99)
		out["specfuzz.timing_frac"] = sum(timing) / total
		out["specfuzz.state_frac"] = sum(state) / total
		out["specfuzz.compare_frac"] = sum(compare) / total
	}

	var cell, setup []float64
	var setupNs, prewarmNs, cellNs, warmNs, runNs int64
	var cycles, commits uint64
	var pol policyStats
	for _, tm := range t.timings {
		cell = append(cell, float64(tm.cellNs())/1e6)
		setup = append(setup, float64(tm.SetupNs)/1e6)
		setupNs += tm.SetupNs
		prewarmNs += tm.PrewarmNs
		cellNs += tm.cellNs()
		warmNs += tm.WarmupNs
		runNs += tm.RunNs
		cycles += tm.Cycles
		commits += tm.Commits
		pol.merge(&tm.Policy)
	}
	pct, tailMs := tailPercentile(cell)
	out["sim.cell_ms_p50"] = median(cell)
	out["sim.cell_ms_tail"] = tailMs
	out["sim.cell_tail_pct"] = float64(pct)
	out["sim.cell_samples"] = float64(len(cell))
	out["sim.setup_ms_p50"] = median(setup)
	out["sim.setup_frac"] = ratio(float64(setupNs), float64(cellNs))
	out["sim.prewarm_frac"] = ratio(float64(prewarmNs), float64(cellNs))
	out["sim.warmup_frac"] = ratio(float64(warmNs), float64(cellNs))
	out["cpu.host_ns_per_cycle"] = ratio(float64(runNs), float64(cycles))
	out["cpu.host_ns_per_instr"] = ratio(float64(runNs), float64(commits))
	runs := float64(max(t.timedRuns, 1))
	out["policy.onsquash_calls"] = float64(pol.SquashCalls) / runs
	out["policy.onsquash_pki"] = ratio(float64(pol.SquashCalls), float64(commits)) * 1000
	out["policy.onsquash_ns_p50"] = pol.SquashNsHist.quantile(0.5)
	out["policy.mode_calls"] = float64(pol.ModeCalls) / runs
	out["policy.hook_frac"] = ratio(float64(pol.HookNs), float64(runNs))
}

// simulatedCounts reports simulated statistics: from the untraced grid
// results (one cold run), or from the rebuilt fuzz simulations.
func simulatedCounts(w workload, untraced []campaign.JobResult, tr *tracedResult, out map[string]float64) {
	type agg struct {
		committed, cycles, fetched, squashes, squashedInsts uint64
		loads, l1, l2, mem, dropped, safe, traffic          uint64
		csSquashes, csWait, csCleanup, csInvals, csRestore  uint64
	}
	var a agg
	add := func(pol sim.Policy, c cpu.Stats, m memsys.Stats, traffic uint64) {
		a.committed += c.Committed
		a.cycles += c.Cycles
		a.fetched += c.Fetched
		a.squashes += c.Squashes
		a.squashedInsts += c.SquashedInsts
		a.loads += m.Loads
		a.l1 += m.LoadL1Hits
		a.l2 += m.LoadL2Hits
		a.mem += m.LoadMems
		a.dropped += m.DroppedFills
		a.safe += m.SafeGetSDelays
		a.traffic += traffic
		if pol == sim.CleanupSpec {
			a.csSquashes += c.Squashes
			a.csWait += uint64(c.InflightWaitCycles)
			a.csCleanup += uint64(c.CleanupOpCycles)
			a.csInvals += m.CleanupInvals
			a.csRestore += m.Restores
		}
	}
	if w.fuzz() {
		for _, fs := range tr.fuzzSims {
			add(fs.pol, fs.cpu, fs.mem, fs.traf.Total())
		}
	} else {
		for _, jr := range untraced {
			add(jr.Result.Policy, jr.Result.CPU, jr.Result.Mem, jr.Result.Traffic.Total())
		}
	}
	kilo := float64(a.committed) / 1000
	out["cpu.ipc"] = ratio(float64(a.committed), float64(a.cycles))
	out["cpu.squash_pki"] = ratio(float64(a.squashes), kilo)
	out["cpu.fetched_per_committed"] = ratio(float64(a.fetched), float64(a.committed))
	out["cpu.squashed_insts"] = float64(a.squashedInsts)
	out["memsys.l1_hit_frac"] = ratio(float64(a.l1), float64(a.loads))
	out["memsys.l2_hit_frac"] = ratio(float64(a.l2), float64(a.loads))
	out["memsys.dram_frac"] = ratio(float64(a.mem), float64(a.loads))
	out["memsys.dram_loads_pki"] = ratio(float64(a.mem), kilo)
	out["memsys.dropped_fills"] = float64(a.dropped)
	out["memsys.safe_gets_delays"] = float64(a.safe)
	out["memsys.traffic_total"] = float64(a.traffic)
	out["core.cleanup_invals"] = float64(a.csInvals)
	out["core.restores"] = float64(a.csRestore)
	out["core.wait_cycles_per_squash"] = ratio(float64(a.csWait), float64(a.csSquashes))
	out["core.cleanup_cycles_per_squash"] = ratio(float64(a.csCleanup), float64(a.csSquashes))
}
