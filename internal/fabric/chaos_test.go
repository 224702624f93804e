// Package fabric holds the shared-cache chaos sweep. The directory once
// held a multi-host campaign tier; that tier is gone, and what it
// promised — several hosts feeding one content-addressed cache, some of
// them killed mid-run, still converge to a single-host export — now rests
// on the cache's atomic writes and read-side verification alone. The
// sweep below checks exactly that, with independent engines standing in
// for hosts.
package fabric

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/faultinject"
	"repro/internal/xrand"
	"repro/sim"
)

// chaosJobs is the fixed small campaign every chaos schedule runs: four
// cells, short workloads, and a tight watchdog so an injected commit
// stall fails in thousands of cycles rather than burning to MaxCycles.
func chaosJobs() []campaign.Job {
	jobs := []campaign.Job{
		{Workload: "gcc", Config: sim.Config{Policy: sim.CleanupSpec, Instructions: 500, Seed: 1}},
		{Workload: "gcc", Config: sim.Config{Policy: sim.NonSecure, Instructions: 500, Seed: 1}},
		{Workload: "lbm", Config: sim.Config{Policy: sim.CleanupSpec, Instructions: 500, Seed: 2}},
		{Workload: "lbm", Config: sim.Config{Policy: sim.NonSecure, Instructions: 500, Seed: 2}},
	}
	for i := range jobs {
		jobs[i].Config.NoWarmup = true
		jobs[i].Config.MaxCycles = 3_000_000
		jobs[i].Config.WatchdogWindow = 5_000
	}
	return jobs
}

// newHost builds one stand-in host: its own engine and its own cache
// handle on the shared directory, retry backoff disabled so the sweep
// never sleeps.
func newHost(dir string, faults *faultinject.Injector) (*campaign.Engine, error) {
	cache, err := campaign.OpenCache(dir)
	if err != nil {
		return nil, err
	}
	cache.Faults = faults
	eng := campaign.NewEngine()
	eng.Workers = 1
	eng.Backoff = 0
	eng.Cache = cache
	eng.Faults = faults
	eng.Reporter = campaign.NewReporter(io.Discard)
	return eng, nil
}

// referenceExport runs jobs on one fault-free engine and renders its
// cache — the bytes every chaos schedule must converge to.
func referenceExport(t *testing.T, jobs []campaign.Job) string {
	t.Helper()
	eng, err := newHost(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(campaign.Failed(eng.Run(jobs))); n != 0 {
		t.Fatalf("%d reference jobs failed", n)
	}
	export, err := cacheExport(eng.Cache)
	if err != nil {
		t.Fatal(err)
	}
	return export
}

// cacheExport renders a cache's entries as the canonical CSV export.
func cacheExport(cache *campaign.Cache) (string, error) {
	entries, err := cache.Entries()
	if err != nil {
		return "", err
	}
	var buf strings.Builder
	if err := campaign.EntriesCSV(&buf, entries); err != nil {
		return "", err
	}
	return buf.String(), nil
}

// chaosTally aggregates event counts across the whole seed sweep — the
// vacuity guards: a chaos test that never fired a fault, never served one
// host's entry to another, never caught a corrupt entry, and never killed
// a host mid-write proves nothing.
type chaosTally struct {
	faults, shared, corrupt, kills, orphans atomic.Int64
}

// TestChaosConvergence is the shared-cache property test: across 100
// seeded fault schedules — cache read errors and corrupt reads, failed,
// corrupt and truncated cache writes, worker errors and panics, commit
// stalls, and (every third seed) a host killed between creating and
// renaming an entry — three hosts interleaving over one cache directory
// always terminate, and a fault-free pass over what they left converges
// to an export byte-identical to a never-faulted single-host run.
func TestChaosConvergence(t *testing.T) {
	jobs := chaosJobs()
	want := referenceExport(t, jobs)
	tally := &chaosTally{}

	t.Run("seeds", func(t *testing.T) {
		for seed := uint64(0); seed < 100; seed++ {
			seed := seed
			t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
				t.Parallel()
				// The run goes on its own goroutine under a hard wall-clock
				// bound: a hung schedule is itself a failure.
				dir := t.TempDir()
				done := make(chan error, 1)
				go func() { done <- chaosRun(seed, dir, jobs, want, tally) }()
				select {
				case err := <-done:
					if err != nil {
						t.Fatalf("seed %d: %v", seed, err)
					}
				case <-time.After(2 * time.Minute):
					t.Fatalf("seed %d: chaos run did not terminate", seed)
				}
			})
		}
	})

	// Vacuity guards: the sweep must actually have exercised the recovery
	// paths it claims to test.
	if tally.faults.Load() == 0 {
		t.Error("no fault ever fired across the sweep")
	}
	if tally.shared.Load() == 0 {
		t.Error("no host ever served an entry another host wrote")
	}
	if tally.corrupt.Load() == 0 {
		t.Error("no corrupt entry was ever caught across the sweep")
	}
	if tally.kills.Load() == 0 || tally.orphans.Load() == 0 {
		t.Errorf("kills=%d orphans=%d: no host was ever killed mid-write and cleaned up after",
			tally.kills.Load(), tally.orphans.Load())
	}
	t.Logf("sweep totals: faults=%d shared=%d corrupt=%d kills=%d orphans=%d",
		tally.faults.Load(), tally.shared.Load(), tally.corrupt.Load(),
		tally.kills.Load(), tally.orphans.Load())
}

// host is one stand-in host and the jobs it has yet to run, in its own
// seeded order.
type host struct {
	eng   *campaign.Engine
	queue []campaign.Job
}

// chaosRun drives one seeded schedule over the cache directory dir to
// termination and convergence.
func chaosRun(seed uint64, dir string, jobs []campaign.Job, want string, tally *chaosTally) error {
	inj := faultinject.New(seed)
	// The schedule — per-host job order, which host steps next, when the
	// victim dies — comes from a seeded stream independent of the fault
	// plan.
	sched := xrand.New(xrand.Hash64(seed ^ 0xfab41c))
	var hosts []*host
	join := func() (*host, error) {
		eng, err := newHost(dir, inj)
		if err != nil {
			return nil, err
		}
		h := &host{eng: eng, queue: append([]campaign.Job(nil), jobs...)}
		for i := len(h.queue) - 1; i > 0; i-- {
			j := sched.Intn(i + 1)
			h.queue[i], h.queue[j] = h.queue[j], h.queue[i]
		}
		hosts = append(hosts, h)
		return h, nil
	}
	var alive []*host
	for i := 0; i < 3; i++ {
		h, err := join()
		if err != nil {
			return err
		}
		alive = append(alive, h)
	}

	// SIGKILL mid-campaign (every third seed): the victim dies after a
	// seeded number of jobs, in the middle of writing the next one — its
	// temp file created, never renamed into place. A replacement host
	// joins, as a restarted machine would.
	victim, budget := alive[0], -1
	if seed%3 == 0 {
		budget = sched.Intn(len(jobs))
	}

	for len(alive) > 0 {
		i := sched.Intn(len(alive))
		h := alive[i]
		if h == victim && budget == 0 {
			if err := killMidWrite(dir, h.queue[0]); err != nil {
				return err
			}
			tally.kills.Add(1)
			nh, err := join()
			if err != nil {
				return err
			}
			alive[i] = nh
			victim = nil
			continue
		}
		r := h.eng.RunJob(h.queue[0])
		if r.Cached {
			// Each host runs each job once, so a hit can only come from
			// an entry some other host wrote.
			tally.shared.Add(1)
		}
		h.queue = h.queue[1:]
		if h == victim {
			budget--
		}
		if len(h.queue) == 0 {
			alive = append(alive[:i], alive[i+1:]...)
		}
	}
	tally.faults.Add(int64(len(inj.Events())))
	for _, h := range hosts {
		tally.corrupt.Add(h.eng.Cache.CorruptReads())
	}

	// Whatever the faults and the kill left behind must be detected
	// damage, never a crash; prune clears it.
	rep, err := campaign.Fsck(dir, true)
	if err != nil {
		return fmt.Errorf("fsck: %w", err)
	}
	tally.corrupt.Add(int64(len(rep.Corrupt)))
	tally.orphans.Add(int64(len(rep.Orphans)))

	// Convergence: a fault-free pass over the surviving cache dir (reuse
	// verified entries, re-simulate anything missing or corrupt) must
	// reproduce the single-host export byte for byte.
	final, err := newHost(dir, nil)
	if err != nil {
		return err
	}
	for _, r := range final.Run(jobs) {
		if r.Err != nil {
			return fmt.Errorf("job %s failed on the fault-free pass: %v (schedule: %v)", r.Job, r.Err, inj.Events())
		}
	}
	got, err := cacheExport(final.Cache)
	if err != nil {
		return err
	}
	if got != want {
		return fmt.Errorf("converged export differs from single-host run:\n%s\nvs\n%s", got, want)
	}
	rep, err = campaign.Fsck(dir, false)
	if err != nil {
		return fmt.Errorf("final fsck: %w", err)
	}
	if !rep.Clean() || rep.OK != len(jobs) {
		return fmt.Errorf("cache after convergence: %s, want %d clean entries", rep, len(jobs))
	}
	return nil
}

// killMidWrite leaves what a host killed inside Cache.Put leaves: the
// entry's temp file, half written, never renamed into place.
func killMidWrite(dir string, job campaign.Job) error {
	key, err := job.Key()
	if err != nil {
		return err
	}
	shard := filepath.Join(dir, key[:2])
	if err := os.MkdirAll(shard, 0o755); err != nil {
		return err
	}
	torn := fmt.Sprintf("{\n \"key\": %q,\n \"schema\": ", key)
	return os.WriteFile(filepath.Join(shard, "."+key+".tmp-killed"), []byte(torn), 0o644)
}
