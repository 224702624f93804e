// Command simbench measures the host cost of the CleanupSpec simulator on
// three workloads run through the campaign engine: a squash-heavy grid, a
// memory-bound grid, and specfuzz differential pairs. BENCHMARK.json lists
// the two grids; the fuzz workload runs by name. See README.md for the
// metrics, what each workload stresses, and how to run it.
//
// Usage (from the repository root, through run.sh, which builds it):
//
//	bash simbench/run.sh --workload grid_squash --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs
// the same workload untraced under a CPU profile, then traced, then the
// layer probes, and prints the per-layer metrics. The last line of
// standard output is always one JSON object with the keys correct,
// attempted, failed and metrics. It exits 1 when an output check fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metricDecl declares one reported metric and which direction is
// better.
type metricDecl struct {
	name, unit, better string
}

// endToEnd are the metrics of an untraced run (--trace 0), reported on
// every workload.
var endToEnd = []metricDecl{
	{"setup_s", "s", "lower"},
	{"wall_s", "s", "lower"},
	{"cells_per_s", "1/s", "higher"},
	{"alloc_bytes_per_cell", "B", "lower"},
	{"allocs_per_cell", "count", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer are the metrics of a traced run (--trace 1), reported on every
// workload; a layer the workload does not exercise reads 0.
var perLayer = []metricDecl{
	{"campaign.simulate_s", "s", "lower"},
	{"campaign.cache_probe_ms", "ms", "lower"},
	{"campaign.cache_write_ms", "ms", "lower"},
	{"campaign.journal_ms", "ms", "lower"},
	{"campaign.idle_frac", "ratio", "lower"},
	{"campaign.tail_s", "s", "lower"},
	{"campaign.warm_rerun_s", "s", "lower"},
	{"campaign.cache_bytes_per_cell", "B", "lower"},

	{"sim.minstr_per_s", "Minstr/s", "higher"},
	{"sim.cell_ms_p50", "ms", "lower"},
	{"sim.cell_ms_tail", "ms", "lower"},
	{"sim.cell_tail_pct", "pct", "higher"},
	{"sim.cell_samples", "count", "higher"},
	{"sim.setup_ms_p50", "ms", "lower"},
	{"sim.setup_frac", "ratio", "lower"},
	{"sim.prewarm_frac", "ratio", "lower"},
	{"sim.warmup_frac", "ratio", "lower"},

	{"cpu.host_ns_per_cycle", "ns", "lower"},
	{"cpu.host_ns_per_instr", "ns", "lower"},
	{"cpu.ipc", "instr/cycle", "higher"},
	{"cpu.squash_pki", "1/kinstr", "lower"},
	{"cpu.fetched_per_committed", "ratio", "lower"},
	{"cpu.squashed_insts", "count", "lower"},
	{"cpu.fetch_frac", "ratio", "lower"},
	{"cpu.dispatch_frac", "ratio", "lower"},
	{"cpu.issue_frac", "ratio", "lower"},
	{"cpu.execute_frac", "ratio", "lower"},
	{"cpu.commit_frac", "ratio", "lower"},
	{"cpu.squash_frac", "ratio", "lower"},
	{"cpu.new_frac", "ratio", "lower"},
	{"runtime.copy_frac", "ratio", "lower"},
	{"runtime.malloc_frac", "ratio", "lower"},
	{"trace.emit_frac", "ratio", "lower"},
	{"memsys.load_frac", "ratio", "lower"},
	{"memsys.new_frac", "ratio", "lower"},
	{"cache.frac", "ratio", "lower"},

	{"policy.onsquash_calls", "count", "lower"},
	{"policy.onsquash_pki", "1/kinstr", "lower"},
	{"policy.onsquash_ns_p50", "ns", "lower"},
	{"policy.mode_calls", "count", "lower"},
	{"policy.hook_frac", "ratio", "lower"},
	{"core.cleanup_invals", "count", "lower"},
	{"core.restores", "count", "lower"},
	{"core.wait_cycles_per_squash", "cycles", "lower"},
	{"core.cleanup_cycles_per_squash", "cycles", "lower"},

	{"memsys.load_l1hit_ns", "ns", "lower"},
	{"memsys.load_l1hit_allocs", "count", "lower"},
	{"memsys.load_miss_ns", "ns", "lower"},
	{"memsys.load_miss_allocs", "count", "lower"},
	{"memsys.cleanup_ns", "ns", "lower"},
	{"memsys.cleanup_allocs", "count", "lower"},
	{"memsys.new_us", "us", "lower"},
	{"memsys.new_allocs", "count", "lower"},
	{"cache.probe_ns", "ns", "lower"},
	{"cache.probe_allocs", "count", "lower"},
	{"cache.install_evict_ns", "ns", "lower"},
	{"cache.install_evict_allocs", "count", "lower"},
	{"cache.new_us", "us", "lower"},
	{"cache.new_allocs", "count", "lower"},
	{"coherence.gets_ns", "ns", "lower"},
	{"coherence.gets_allocs", "count", "lower"},
	{"coherence.getssafe_ns", "ns", "lower"},
	{"coherence.getssafe_allocs", "count", "lower"},
	{"dram.access_ns", "ns", "lower"},
	{"dram.access_allocs", "count", "lower"},
	{"branch.predict_update_ns", "ns", "lower"},
	{"branch.predict_update_allocs", "count", "lower"},

	{"memsys.l1_hit_frac", "ratio", "higher"},
	{"memsys.l2_hit_frac", "ratio", "higher"},
	{"memsys.dram_frac", "ratio", "lower"},
	{"memsys.dram_loads_pki", "1/kinstr", "lower"},
	{"memsys.dropped_fills", "count", "lower"},
	{"memsys.safe_gets_delays", "count", "lower"},
	{"memsys.traffic_total", "count", "lower"},

	{"specfuzz.pair_ms_p50", "ms", "lower"},
	{"specfuzz.pair_ms_p99", "ms", "lower"},
	{"specfuzz.timing_frac", "ratio", "lower"},
	{"specfuzz.state_frac", "ratio", "lower"},
	{"specfuzz.compare_frac", "ratio", "lower"},
	{"specfuzz.effective", "count", "higher"},
	{"specfuzz.survivors", "count", "lower"},

	{"runtime.gc_cycles", "count", "lower"},
	{"runtime.gc_cpu_frac", "ratio", "lower"},
	{"trace.overhead_frac", "ratio", "lower"},
}

// metricValue is one entry of the result object's metrics map.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: grid_squash | grid_memory | fuzz_pairs")
		seed    = flag.Uint64("seed", 1, "workload seed (grid hierarchy seed; fuzz gadget-generation seed)")
		secs    = flag.Int("seconds", 30, "how long one run measures")
		traceOn = flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
		work    = flag.String("work", filepath.Join(".bench_build", "work"), "scratch directory for the runs' cache directories")
	)
	flag.Parse()
	w, ok := workloadByName(*name)
	if !ok || *secs < 1 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintf(os.Stderr, "simbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	if *seed == 0 {
		// Seed 0 would resolve to the simulator's default seed 1; keep
		// distinct seeds distinct.
		*seed = 1 << 32
	}
	err := os.MkdirAll(*work, 0o755)
	var dir string
	if err == nil {
		dir, err = os.MkdirTemp(*work, "run-")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "simbench:", err)
		os.Exit(2)
	}
	defer os.RemoveAll(dir)

	dur := time.Duration(*secs) * time.Second
	var res result
	if *traceOn == 1 {
		res, err = tracedMain(w, dir, *seed, dur)
	} else {
		res, err = untracedMain(w, dir, *seed, dur)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "simbench:", err)
		os.RemoveAll(dir)
		os.Exit(2)
	}
	printResult(w, res)
	if !res.Correct {
		os.RemoveAll(dir)
		os.Exit(1)
	}
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, " | ")
}

// untracedMain measures the end-to-end metrics.
func untracedMain(w workload, dir string, seed uint64, dur time.Duration) (result, error) {
	rs, err := measureReps(w, dir, seed, dur, nil)
	if err != nil {
		return result{}, err
	}
	m := map[string]float64{
		"setup_s":              median(rs.setup),
		"wall_s":               median(rs.wall),
		"cells_per_s":          median(rs.cellsPerS),
		"alloc_bytes_per_cell": median(rs.allocBytesPerCell),
		"allocs_per_cell":      median(rs.allocsPerCell),
		"peak_rss_mb":          median(rs.peakRSS),
	}
	if !w.fuzz() {
		fmt.Printf("info sim_minstr_per_s %s Minstr/s\n", fmtFloat(median(rs.minstrPerS)))
	}
	return rs.result(endToEnd, m), nil
}

// printResult prints every metric by name and unit, the output digest,
// and the final JSON line.
func printResult(w workload, res result) {
	for _, d := range declsFor(res) {
		mv := res.Metrics[d.name]
		fmt.Printf("metric %s %s %s %s\n", w.name, d.name, fmtFloat(mv.Value), mv.Unit)
	}
	fmt.Printf("cells %d cells_failed %d\n", res.Attempted, res.Failed)
	blob, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(blob))
}

// declsFor returns the declared metrics a result carries, in declaration
// order.
func declsFor(res result) []metricDecl {
	var out []metricDecl
	for _, list := range [][]metricDecl{endToEnd, perLayer} {
		for _, d := range list {
			if _, ok := res.Metrics[d.name]; ok {
				out = append(out, d)
			}
		}
	}
	return out
}

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// resetPeakRSS restarts the kernel's peak-RSS (VmHWM) accounting for
// this process. Where the kernel refuses, VmHWM stays the process peak.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort, see above
}

// reps is what a sequence of cold runs of one workload measured.
type reps struct {
	setup             []float64 // s, one per timed set-up
	wall              []float64 // s, one per cold run
	cellsPerS         []float64
	minstrPerS        []float64 // grids only
	allocBytesPerCell []float64
	allocsPerCell     []float64
	warmWall          []float64
	peakRSS           []float64 // MB, one per cold run

	attempted, failed int
	digest            string
	problems          []string
	effective         int
	survivors         int
	correct           bool
}

// setups is how many back-to-back set-ups a run times for setup_s. They
// run after the cold runs, on a warm heap: a cold run's own set-up
// follows the heap release that isolates its peak RSS, and would time
// page faults instead.
const setups = 101

// warmupReps is how many cold runs a measurement makes before it starts
// its clock. They are checked like the timed runs but not timed, so the
// first timed run finds the heap grown and the program's pages resident.
const warmupReps = 1

// measureReps makes warmupReps untimed cold runs of the workload, then
// repeats timed ones — set up, run, check — until dur has passed (at
// least once), then times set-ups alone. onRep, when non-nil, sees each
// timed run.
//
// A set-up is a few file-system calls, and a run writes hundreds of cache
// files, so both are timed away from the file system's own work on
// earlier runs. The runs' cache directories are deleted only after the
// last run: deleting each run's files before the next one made
// fuzz_pairs about 12% slower and less steady. The set-ups follow that
// deletion and a sync, which takes the earlier runs' metadata and
// write-back off the file system; without it their median swung between
// 30 and 500 µs from run to run on the grids.
func measureReps(w workload, dir string, seed uint64, dur time.Duration, onRep func(p *prepared, cold coldRun, c checked)) (*reps, error) {
	rs := &reps{correct: true}
	var dirs []string
	defer func() { removeDirs(dirs) }()
	var first []string
	var start time.Time
	for i := 0; i <= warmupReps || time.Since(start) < dur; i++ {
		timed := i >= warmupReps
		if i == warmupReps {
			start = time.Now()
		}
		// Start each run from a collected heap with its memory returned
		// to the OS, so its peak resident set is its own.
		debug.FreeOSMemory()
		resetPeakRSS()
		p, err := w.prepare(filepath.Join(dir, fmt.Sprintf("rep%d", i)), seed, nil)
		if err != nil {
			return nil, err
		}
		dirs = append(dirs, p.dir)
		cold := p.run()
		peak := peakRSSMB()
		c := w.check(p, cold)
		if first == nil {
			first = c.hashes
			rs.digest = digest(c.hashes)
			rs.effective, rs.survivors = c.effective, c.survivors
		} else {
			for _, j := range sameHashes(first, c.hashes) {
				c.fail(j, fmt.Sprintf("%s: output differs from the first run's", cold.results[j].Job))
			}
		}
		rs.count(c, len(cold.results))
		fmt.Fprintf(os.Stderr, "simbench: %s rep %d timed=%t wall %.4f s warm %.4f s\n", w.name, i, timed, cold.wall.Seconds(), c.warmWall.Seconds())
		if timed {
			rs.record(w, p, cold, c, peak)
			if onRep != nil {
				onRep(p, cold, c)
			}
		}
		p.closeManifest()
	}
	removeDirs(dirs)
	dirs = nil
	syscall.Sync()
	for i := 0; i < setups; i++ {
		t := time.Now()
		p, err := w.prepare(filepath.Join(dir, fmt.Sprintf("setup%d", i)), seed, nil)
		if err != nil {
			return nil, err
		}
		rs.setup = append(rs.setup, time.Since(t).Seconds())
		p.close()
	}
	fmt.Printf("digest %s seed=%d %s\n", w.name, seed, rs.digest)
	for _, pr := range rs.problems {
		fmt.Fprintln(os.Stderr, "simbench: check failed:", pr)
	}
	return rs, nil
}

// removeDirs deletes runs' cache directories, scratch space under the
// work directory.
func removeDirs(dirs []string) {
	for _, d := range dirs {
		_ = os.RemoveAll(d) // scratch space; the work directory goes at exit
	}
}

// count adds one checked cold run of n cells to the run's totals.
func (rs *reps) count(c checked, n int) {
	rs.attempted += n
	rs.failed += c.nFailed()
	if len(c.problems) > 0 {
		rs.correct = false
		if len(rs.problems) < 8 {
			rs.problems = append(rs.problems, c.problems...)
		}
	}
}

// record adds one timed cold run's measurements.
func (rs *reps) record(w workload, p *prepared, cold coldRun, c checked, peakRSS float64) {
	n := float64(len(cold.results))
	wall := cold.wall.Seconds()
	rs.wall = append(rs.wall, wall)
	rs.cellsPerS = append(rs.cellsPerS, n/wall)
	rs.allocBytesPerCell = append(rs.allocBytesPerCell, float64(cold.allocBytes)/n)
	rs.allocsPerCell = append(rs.allocsPerCell, float64(cold.allocs)/n)
	rs.warmWall = append(rs.warmWall, c.warmWall.Seconds())
	rs.peakRSS = append(rs.peakRSS, peakRSS)
	if !w.fuzz() {
		rs.minstrPerS = append(rs.minstrPerS, float64(committedInstructions(p.jobs))/1e6/wall)
	}
}

// result packages measured values under their declared units.
func (rs *reps) result(decls []metricDecl, values map[string]float64) result {
	res := result{
		Correct:   rs.correct && rs.failed == 0,
		Attempted: rs.attempted,
		Failed:    rs.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range decls {
		res.Metrics[d.name] = metricValue{Value: values[d.name], Unit: d.unit}
	}
	return res
}
