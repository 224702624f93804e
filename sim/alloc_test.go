package sim

import (
	"runtime"
	"testing"
)

// mallocsOf returns the heap allocations one RunWorkload call makes.
func mallocsOf(t *testing.T, workload string, p Policy, instructions uint64) uint64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := RunWorkload(workload, Config{Policy: p, Instructions: instructions}); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestSteadyStateAllocations guards the allocation-free cycle loop. Two
// runs differ only in window length; warmup defaults to the window, so
// the longer run commits 2*(long-short) more instructions and the
// construction cost (program, hierarchy, core, policy) cancels in the
// difference. What remains is the per-instruction cost of the cycle loop.
func TestSteadyStateAllocations(t *testing.T) {
	const short, long = 20_000, 60_000
	const budget = 0.01 // allocations per extra committed instruction
	for _, wl := range []string{"gobmk", "mcf", "libq"} {
		for _, p := range Policies() {
			a := mallocsOf(t, wl, p, short)
			b := mallocsOf(t, wl, p, long)
			extra := float64(2 * (long - short))
			var per float64
			if b > a {
				per = float64(b-a) / extra
			}
			t.Logf("%s/%s: %.4f allocs per extra committed instruction", wl, p, per)
			if per > budget {
				t.Errorf("%s/%s: %.4f allocs per committed instruction in steady state (%d at %d instructions, %d at %d), budget %.2f",
					wl, p, per, a, short, b, long, budget)
			}
		}
	}
}
