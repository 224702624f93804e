package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"time"

	"repro/internal/campaign"
	"repro/internal/obs"
	"repro/internal/specfuzz"
	"repro/sim"
)

// workload is one named set of campaign cells. Grid workloads simulate
// every listed SPEC-like profile under every policy; the fuzz workload
// runs specfuzz differential pairs over generated gadgets under every
// policy.
type workload struct {
	name string
	why  string
	// grid lists the profiles of a grid workload (empty for fuzz).
	grid []string
	// instructions is a grid cell's measurement window.
	instructions uint64
	// perStratum is how many gadgets the fuzz workload draws per
	// (receiver, entry count) stratum.
	perStratum int
	// unlisted marks a workload the program runs by name but
	// BENCHMARK.json does not list, because the host moves its timings
	// by more than the benchmark's bounds allow (see README.md).
	unlisted bool
}

// The grid window matches the campaign CLI's default, so a cell here is
// the cell `campaign run` simulates.
const gridInstructions = 150_000

// fuzzPerStratum sizes the fuzz workload: this many gadgets for each
// (receiver, entry count) pair. Those two axes set most of a gadget's
// simulation cost (a flush+reload probe of 64 slots runs ~10x longer than
// a prime+probe of 8), so drawing a fixed number per stratum keeps a
// run's cost steady across seeds where a plain random draw of the same
// size varies by ~20%.
const fuzzPerStratum = 8

var workloads = []workload{
	{
		name:         "grid_squash",
		why:          "high-mispredict, cache-resident profiles x 7 policies: host time in fetch/dispatch, squash rollback and OnSquash; the memsys miss path idles",
		grid:         []string{"gobmk", "sjeng", "perl", "povray"},
		instructions: gridInstructions,
	},
	{
		name:         "grid_memory",
		why:          "8-16 MB footprint profiles x 7 policies: host time in memsys.Load misses and cache probes, many idle simulated cycles, OnSquash idle",
		grid:         []string{"lbm", "libq", "milc", "soplex", "mcf"},
		instructions: gridInstructions,
	},
	{
		name:       "fuzz_pairs",
		why:        "thousands of ms-long specfuzz differential-pair simulations where construction (memsys.New, cpu.New) and allocation dominate",
		perStratum: fuzzPerStratum,
		unlisted:   true,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func (w workload) fuzz() bool { return len(w.grid) == 0 }

// prepared is one ready-to-dispatch run: an engine on a fresh, empty
// cache directory and the job list it will execute.
type prepared struct {
	eng   *campaign.Engine
	dir   string
	jobs  []campaign.Job
	specs []specfuzz.GadgetSpec // fuzz only
}

// prepare builds the engine, its fresh cache directory and manifest, and
// the job list (generating the gadgets on the fuzz workload): everything
// a run does before its first dispatch. The workload seed is the grid
// cells' hierarchy seed and the fuzz workload's gadget-generation seed.
func (w workload) prepare(dir string, seed uint64, tr *obs.Tracer) (*prepared, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	eng := campaign.NewEngine()
	eng.Workers = runtime.NumCPU()
	eng.Trace = tr
	cache, err := campaign.OpenCache(dir)
	if err != nil {
		return nil, err
	}
	eng.Cache = cache
	eng.Manifest = campaign.NewManifest(dir, w.name)
	p := &prepared{eng: eng, dir: dir}
	if w.fuzz() {
		specfuzz.Register(eng)
		p.specs, err = gadgetSet(seed, w.perStratum)
		if err != nil {
			return nil, err
		}
		p.jobs, err = specfuzz.Jobs(p.specs, sim.Policies(), seed)
		if err != nil {
			return nil, err
		}
		return p, nil
	}
	g := campaign.Grid{Name: w.name, Workloads: w.grid, Policies: sim.Policies(),
		Seeds: []uint64{seed}, Instructions: w.instructions}
	p.jobs = g.Jobs()
	return p, nil
}

// gadgetSet draws perStratum gadgets for every (receiver, entry count)
// stratum from specfuzz's generator stream for seed, keeping generation
// order within each stratum.
func gadgetSet(seed uint64, perStratum int) ([]specfuzz.GadgetSpec, error) {
	type stratum struct {
		recv    specfuzz.ReceiverKind
		entries int
	}
	strata := map[stratum]int{}
	var receivers, entries = 2, 4 // specfuzz's receiver kinds and entry-count choices
	want := receivers * entries * perStratum
	for n := 16 * want; n <= 1<<16; n *= 2 {
		var out []specfuzz.GadgetSpec
		clear(strata)
		for _, s := range specfuzz.Generate(seed, n) {
			k := stratum{s.Receiver, s.Entries}
			if strata[k] < perStratum {
				strata[k]++
				out = append(out, s)
			}
		}
		if len(out) == want {
			return out, nil
		}
	}
	return nil, fmt.Errorf("gadget set: seed %d does not fill %d strata of %d gadgets", seed, receivers*entries, perStratum)
}

// closeManifest releases the run's manifest journal.
func (p *prepared) closeManifest() {
	if p.eng.Manifest != nil {
		_ = p.eng.Manifest.Close() // the directory is scratch space, deleted later
	}
}

// close releases the run's manifest and deletes its cache directory.
func (p *prepared) close() {
	p.closeManifest()
	_ = os.RemoveAll(p.dir) // scratch space under the work directory
}

// coldRun is the measured part of one run: every job dispatched on the
// closed-loop worker pool (all cells queued at the start, a worker takes
// the next cell when it finishes one).
type coldRun struct {
	results    []campaign.JobResult
	wall       time.Duration
	allocBytes uint64
	allocs     uint64
}

func (p *prepared) run() coldRun {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	res := p.eng.Run(p.jobs)
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	return coldRun{
		results:    res,
		wall:       wall,
		allocBytes: after.TotalAlloc - before.TotalAlloc,
		allocs:     after.Mallocs - before.Mallocs,
	}
}

// cellHash is one cell's output fingerprint: every simulated statistic of
// a grid cell (the full sim.Result), or the decoded verdict of a fuzz
// cell. Equal hashes mean identical outputs.
func cellHash(jr campaign.JobResult, fuzz bool) (string, error) {
	if jr.Err != nil {
		return "", jr.Err
	}
	var blob []byte
	var err error
	if fuzz {
		var v specfuzz.Verdict
		v, err = specfuzz.DecodeVerdict(jr.Aux)
		if err == nil {
			blob, err = json.Marshal(v)
		}
	} else {
		blob, err = json.Marshal(jr.Result)
	}
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:]), nil
}

// digest folds per-cell hashes, in job order, into one workload digest.
func digest(hashes []string) string {
	h := sha256.New()
	for _, c := range hashes {
		h.Write([]byte(c))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))[:32]
}

// checked is the output check of one cold run.
type checked struct {
	hashes    []string
	failed    []bool
	effective int // fuzz: gadgets leaking on the unprotected baseline
	survivors int // fuzz: leaks surviving a defense
	warmWall  time.Duration
	problems  []string
}

func (c *checked) fail(i int, why string) {
	c.failed[i] = true
	if len(c.problems) < 8 {
		c.problems = append(c.problems, why)
	}
}

func (c *checked) nFailed() int {
	n := 0
	for _, f := range c.failed {
		if f {
			n++
		}
	}
	return n
}

// check verifies one cold run's outputs: every cell succeeded; on the
// fuzz workload, no leak survives any defense and at least one gadget
// leaks on the unprotected baseline; and a rerun over the filled cache
// simulates nothing and reproduces every cell exactly.
func (w workload) check(p *prepared, cold coldRun) checked {
	c := checked{hashes: make([]string, len(cold.results)), failed: make([]bool, len(cold.results))}
	var baseline []int
	for i, jr := range cold.results {
		h, err := cellHash(jr, w.fuzz())
		if err != nil {
			c.fail(i, fmt.Sprintf("%s: %v", jr.Job, err))
			continue
		}
		c.hashes[i] = h
		if !w.fuzz() {
			continue
		}
		v, _ := specfuzz.DecodeVerdict(jr.Aux) // decoded without error by cellHash
		if v.Policy == string(sim.NonSecure) {
			baseline = append(baseline, i)
			if v.Leak {
				c.effective++
			}
		} else if v.Leak {
			c.survivors++
			c.fail(i, fmt.Sprintf("%s: leak survives the defense (%v)", jr.Job, v.Channels))
		}
	}
	if w.fuzz() && c.effective == 0 {
		for _, i := range baseline {
			c.fail(i, "no gadget leaks on the unprotected baseline")
		}
	}

	warm, err := p.warmRerun()
	if err != nil {
		for i := range c.failed {
			c.fail(i, fmt.Sprintf("warm rerun: %v", err))
		}
		return c
	}
	c.warmWall = warm.wall
	if sims := warm.eng.Simulations(); sims != 0 {
		c.problems = append(c.problems, fmt.Sprintf("warm rerun simulated %d cells", sims))
	}
	for i, jr := range warm.results {
		if !jr.Cached {
			c.fail(i, fmt.Sprintf("%s: not served from cache on the warm rerun", jr.Job))
			continue
		}
		h, err := cellHash(jr, w.fuzz())
		if err != nil || h != c.hashes[i] {
			c.fail(i, fmt.Sprintf("%s: warm rerun differs from the cold run", jr.Job))
		}
	}
	return c
}

// warmResult is a rerun of a run's jobs over its filled cache.
type warmResult struct {
	eng     *campaign.Engine
	results []campaign.JobResult
	wall    time.Duration
}

// warmRerun runs the same jobs on a new engine over the cold run's cache
// directory, so every cell must come from disk.
func (p *prepared) warmRerun() (warmResult, error) {
	cache, err := campaign.OpenCache(p.dir)
	if err != nil {
		return warmResult{}, err
	}
	eng := campaign.NewEngine()
	eng.Workers = p.eng.Workers
	eng.Cache = cache
	if p.specs != nil {
		specfuzz.Register(eng)
	}
	start := time.Now()
	res := eng.Run(p.jobs)
	return warmResult{eng: eng, results: res, wall: time.Since(start)}, nil
}

// sameHashes reports the cells whose hashes differ between two runs.
func sameHashes(a, b []string) []int {
	var diff []int
	for i := range a {
		if i >= len(b) || a[i] != b[i] {
			diff = append(diff, i)
		}
	}
	return diff
}

// committedInstructions is the simulated work of a grid run: warmup plus
// window, as each job's resolved config states it.
func committedInstructions(jobs []campaign.Job) uint64 {
	var n uint64
	for _, j := range jobs {
		rc := j.Config.Resolved()
		n += rc.Warmup + rc.Instructions
	}
	return n
}

// resultsEqual compares the simulated statistics the traced rebuild must
// reproduce exactly.
func resultsEqual(a, b sim.Result) bool {
	return a.Cycles == b.Cycles && a.Instructions == b.Instructions &&
		reflect.DeepEqual(a.CPU, b.CPU) && reflect.DeepEqual(a.Mem, b.Mem) &&
		a.Traffic == b.Traffic
}
