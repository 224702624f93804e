// Command cleanupspec-sim runs one workload under one security policy and
// prints the full measurement record — the single-run workhorse behind the
// experiment harness.
//
// Usage:
//
//	cleanupspec-sim -workload astar -policy cleanupspec -instructions 300000
//	cleanupspec-sim -list
//	cleanupspec-sim -workload soplex -compare   # all policies side by side
//	cleanupspec-sim -workload astar -metrics-out astar.jsonl -trace-out astar.trace.json
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/metrics"
	"repro/sim"
)

func main() {
	var (
		wl           = flag.String("workload", "astar", "workload name (see -list)")
		pol          = flag.String("policy", "cleanupspec", "policy: nonsecure, cleanupspec, invisispec-initial, invisispec-revised, delay-all, delay-on-miss, value-predict")
		instructions = flag.Uint64("instructions", 300_000, "committed instructions to measure")
		seed         = flag.Uint64("seed", 1, "randomization seed")
		list         = flag.Bool("list", false, "list workloads and policies")
		compare      = flag.Bool("compare", false, "run every policy and compare against nonsecure")
		traceN       = flag.Int("trace", 0, "dump the last N trace events after the run")
		metricsOut   = flag.String("metrics-out", "", "write the interval time series here (.csv = CSV, else JSONL)")
		traceOut     = flag.String("trace-out", "", "write a Chrome trace-event JSON (Perfetto) file here")
		sampleEvery  = flag.Uint64("sample-every", 1000, "metrics sampling interval in cycles")
	)
	flag.Parse()

	if *list {
		fmt.Println("workloads:")
		for _, w := range sim.Workloads() {
			fmt.Println("  ", w)
		}
		fmt.Println("policies:")
		for _, p := range sim.Policies() {
			fmt.Println("  ", p)
		}
		return
	}

	if *compare {
		base, err := sim.RunWorkload(*wl, sim.Config{Policy: sim.NonSecure, Instructions: *instructions, Seed: *seed})
		check(err)
		fmt.Printf("%-20s %12s %8s %10s\n", "policy", "cycles", "IPC", "slowdown")
		fmt.Printf("%-20s %12d %8.3f %10s\n", "nonsecure", base.Cycles, base.IPC, "-")
		for _, p := range sim.Policies()[1:] {
			r, err := sim.RunWorkload(*wl, sim.Config{Policy: p, Instructions: *instructions, Seed: *seed})
			check(err)
			fmt.Printf("%-20s %12d %8.3f %+9.1f%%\n", p, r.Cycles, r.IPC,
				(float64(r.Cycles)/float64(base.Cycles)-1)*100)
		}
		return
	}

	cfg := sim.Config{Policy: sim.Policy(*pol), Instructions: *instructions, Seed: *seed}
	var ring *sim.TraceRing
	if *traceN > 0 {
		ring = sim.NewTraceRing(*traceN)
		cfg.Trace = ring
	}
	var col *sim.Metrics
	if *metricsOut != "" || *traceOut != "" {
		col = &sim.Metrics{}
		cfg.Metrics = col
		cfg.SampleEvery = *sampleEvery
		if *traceOut != "" && cfg.Trace == nil {
			// The Perfetto export wants the event stream; retain a large
			// tail by default when -trace was not given.
			cfg.Trace = sim.NewTraceRing(1 << 17)
		}
	}
	r, err := sim.RunWorkload(*wl, cfg)
	check(err)
	if *metricsOut != "" {
		check(metrics.WriteSeriesFile(*metricsOut, col.Samples()))
		fmt.Fprintf(os.Stderr, "cleanupspec-sim: wrote %d sample(s) to %s\n", len(col.Samples()), *metricsOut)
	}
	if *traceOut != "" {
		check(writeChromeTrace(*traceOut, *wl, cfg, col.Samples()))
		fmt.Fprintf(os.Stderr, "cleanupspec-sim: wrote Perfetto trace to %s\n", *traceOut)
	}
	fmt.Printf("workload:            %s\n", r.Workload)
	fmt.Printf("policy:              %s\n", r.Policy)
	fmt.Printf("instructions:        %d\n", r.Instructions)
	fmt.Printf("cycles:              %d (IPC %.3f)\n", r.Cycles, r.IPC)
	fmt.Printf("branch mispredict:   %.2f%%\n", r.MispredictRate*100)
	fmt.Printf("L1-D miss rate:      %.2f%%\n", r.L1MissRate*100)
	fmt.Printf("squashes/kilo-inst:  %.2f\n", r.SquashPKI)
	fmt.Printf("loads per squash:    %.2f\n", r.LoadsPerSquash)
	fmt.Printf("squashed-load mix:   NI %.0f%%  L1H %.0f%%  L2H %.2f%%  L2M %.2f%%\n",
		r.SquashedPctNI, r.SquashedPctL1H, r.SquashedPctL2H, r.SquashedPctL2M)
	fmt.Printf("squashed L1-misses:  %.0f%% inflight (dropped) / %.0f%% executed (cleaned)\n",
		r.InflightFrac*100, r.ExecutedFrac*100)
	fmt.Printf("stall per squash:    %.1f wait + %.1f cleanup cycles\n", r.WaitPerSquash, r.CleanupPerSquash)
	fmt.Printf("traffic:             regular %d, invisible %d, update %d, cleanup %d, writebacks %d\n",
		r.Traffic.Regular, r.Traffic.Invisible, r.Traffic.Update, r.Traffic.Cleanup, r.Traffic.Writebacks)
	if ring != nil {
		fmt.Printf("\ntrace (last %d of %d events):\n", len(ring.Events()), ring.Total())
		if _, err := ring.WriteTo(os.Stdout); err != nil {
			check(err)
		}
	}
}

func writeChromeTrace(path, wl string, cfg sim.Config, samples []sim.MetricSample) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = metrics.ExportChromeTrace(f, metrics.ChromeTraceOpts{
		Process: string(cfg.Resolved().Policy) + "/" + wl,
		Events:  cfg.Trace.Events(),
		Samples: samples,
		Counters: []metrics.CounterSeries{
			{Name: "ipc", Values: metrics.Rates(samples, "cpu.committed")},
			{Name: "squash-per-kcycle", Values: scale(metrics.Rates(samples, "cpu.squashes"), 1000)},
			{Name: "l1d-miss-rate", Values: metrics.RatioDeltas(samples, "l1d.misses", "l1d.accesses")},
		},
	})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func scale(vals []float64, by float64) []float64 {
	for i := range vals {
		vals[i] *= by
	}
	return vals
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "cleanupspec-sim:", err)
		os.Exit(1)
	}
}
