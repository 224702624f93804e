// Command simscope is the interactive-grade inspector for instrumented
// runs: it executes one workload with full metrics attached and renders the
// run's phase behavior (sparkline time series), its latency/window
// histograms, and the final counter registry — or inspects a campaign
// cache's per-cell summaries without re-simulating anything.
//
// Usage:
//
//	simscope run -workload astar -policy cleanupspec
//	simscope run -workload mcf -policy cleanupspec -hist all -trace-out mcf.trace.json
//	simscope campaign -cache .campaign
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/internal/campaign"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/sim"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "run":
		err = cmdRun(os.Args[2:])
	case "campaign":
		err = cmdCampaign(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "simscope: unknown subcommand %q\n\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "simscope:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage:
  simscope run      [flags]   run one instrumented workload and inspect it
  simscope campaign [flags]   inspect a campaign cache's per-cell summaries

run flags:
  -workload name      workload (default "astar")
  -policy name        policy (default "cleanupspec")
  -instructions N     measurement window (default 300000)
  -seed N             randomization seed (default 1)
  -sample-every N     sampling interval in cycles (default 500)
  -width N            sparkline width in columns (default 60)
  -hist pat           histograms to print: "top" (non-empty ones), "all",
                      or a name substring (default "top")
  -counters           also dump the full final counter registry
  -metrics-out file   write the time series (.csv = CSV, else JSONL)
  -trace-out file     write a Chrome trace-event (Perfetto) file

campaign flags:
  -cache dir          cache directory (default ".campaign")
  -spans file         span JSONL from "campaign run -span-out": render the
                      top-N slowest cells and the per-stage breakdown
  -top N              with -spans: slowest cells to list (default 10)
`)
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("simscope run", flag.ExitOnError)
	var (
		wl           = fs.String("workload", "astar", "workload name")
		pol          = fs.String("policy", "cleanupspec", "policy name")
		instructions = fs.Uint64("instructions", 300_000, "committed instructions to measure")
		seed         = fs.Uint64("seed", 1, "randomization seed")
		sampleEvery  = fs.Uint64("sample-every", 500, "sampling interval in cycles")
		width        = fs.Int("width", 60, "sparkline width in columns")
		histPat      = fs.String("hist", "top", `histograms: "top", "all", or a name substring`)
		counters     = fs.Bool("counters", false, "dump the full final counter registry")
		metricsOut   = fs.String("metrics-out", "", "write the time series here")
		traceOut     = fs.String("trace-out", "", "write a Perfetto trace here")
	)
	fs.Parse(args)

	col := &sim.Metrics{}
	cfg := sim.Config{
		Policy:       sim.Policy(*pol),
		Instructions: *instructions,
		Seed:         *seed,
		Metrics:      col,
		SampleEvery:  *sampleEvery,
	}
	if *traceOut != "" {
		cfg.Trace = sim.NewTraceRing(1 << 17)
	}
	r, err := sim.RunWorkload(*wl, cfg)
	if err != nil {
		return err
	}

	fmt.Printf("simscope: %s under %s — %d instructions, %d cycles, IPC %.3f\n\n",
		r.Workload, r.Policy, r.Instructions, r.Cycles, r.IPC)

	samples := col.Samples()
	fmt.Printf("phase plot (%d samples, every %d cycles):\n", len(samples), *sampleEvery)
	plot := func(label string, vals []float64) {
		vals = downsample(vals, *width)
		lo, hi := minMax(vals)
		fmt.Printf("  %-14s %s  [%.3g .. %.3g]\n", label, stats.Sparkline(vals), lo, hi)
	}
	plot("IPC", metrics.Rates(samples, "cpu.committed"))
	plot("squash/kcycle", scale(metrics.Rates(samples, "cpu.squashes"), 1000))
	plot("L1D miss rate", metrics.RatioDeltas(samples, "l1d.misses", "l1d.accesses"))
	plot("L2 miss rate", metrics.RatioDeltas(samples, "l2.misses", "l2.accesses"))
	if gaugeSeries(samples, "mem.pending_txns") != nil {
		plot("pending txns", gaugeSeries(samples, "mem.pending_txns"))
	}
	fmt.Println()

	printHistograms(col.Registry, *histPat)

	if *counters {
		fmt.Println("counters:")
		snap := col.Registry.Snapshot()
		for _, name := range stats.SortedKeys(snap.Counters) {
			fmt.Printf("  %-32s %d\n", name, snap.Counters[name])
		}
		fmt.Println()
	}

	if *metricsOut != "" {
		if err := metrics.WriteSeriesFile(*metricsOut, samples); err != nil {
			return err
		}
		fmt.Printf("wrote %d sample(s) to %s\n", len(samples), *metricsOut)
	}
	if *traceOut != "" {
		run := trace.Run{Process: string(r.Policy) + "/" + r.Workload, Events: cfg.Trace.Events(), Samples: samples}
		if err := trace.WriteChromeFile(*traceOut, []trace.Run{run}); err != nil {
			return err
		}
		fmt.Println("wrote Perfetto trace to", *traceOut)
	}
	return nil
}

func printHistograms(reg *metrics.Registry, pat string) {
	names := reg.Names(metrics.KindHistogram)
	shown := 0
	for _, name := range names {
		h, _ := reg.HistogramByName(name)
		switch {
		case pat == "all":
		case pat == "top":
			if h.Count() == 0 {
				continue
			}
		default:
			if !strings.Contains(name, pat) {
				continue
			}
		}
		fmt.Printf("%s\n%s\n", name, indent(h.String(), "  "))
		shown++
	}
	if shown == 0 {
		fmt.Printf("no histograms matching %q recorded anything (try -hist all)\n\n", pat)
	}
}

func cmdCampaign(args []string) error {
	fs := flag.NewFlagSet("simscope campaign", flag.ExitOnError)
	cacheDir := fs.String("cache", ".campaign", "cache directory")
	spansIn := fs.String("spans", "", "span JSONL from `campaign run -span-out` (renders the span view instead of the cache view)")
	topN := fs.Int("top", 10, "with -spans: how many slowest cells to list")
	fs.Parse(args)

	if *spansIn != "" {
		return spanView(*spansIn, *topN)
	}

	cache, err := campaign.OpenCache(*cacheDir)
	if err != nil {
		return err
	}
	entries, err := cache.Entries()
	if err != nil {
		return err
	}
	if len(entries) == 0 {
		return fmt.Errorf("cache at %s is empty", *cacheDir)
	}

	t := stats.NewTable(fmt.Sprintf("simscope: %d cached cell(s) at %s", len(entries), *cacheDir),
		"Cell", "IPC", "Squash/KI", "L1 miss", "Traffic")
	for _, e := range entries {
		cell := e.Workload + "/" + string(e.Policy)
		if e.Variant != "" {
			cell += "/" + e.Variant
		}
		if e.Seed > 1 {
			cell += fmt.Sprintf("/seed%d", e.Seed)
		}
		t.AddRow(cell,
			fmt.Sprintf("%.3f", e.Result.IPC),
			fmt.Sprintf("%.2f", e.Result.SquashPKI),
			fmt.Sprintf("%.2f%%", e.Result.L1MissRate*100),
			fmt.Sprintf("%d", e.Result.Traffic.Total()))
	}
	fmt.Println(t.String())

	// Per-policy IPC profile across workloads (seed 1, base variant): the
	// campaign-level equivalent of the per-run phase plot.
	byPolicy := make(map[sim.Policy]map[string]float64)
	for _, e := range entries {
		if e.Variant != "" || e.Seed != 1 {
			continue
		}
		if byPolicy[e.Policy] == nil {
			byPolicy[e.Policy] = make(map[string]float64)
		}
		byPolicy[e.Policy][e.Workload] = e.Result.IPC
	}
	var policies []string
	for p := range byPolicy {
		policies = append(policies, string(p))
	}
	sort.Strings(policies)
	if len(policies) > 0 {
		fmt.Println("IPC across workloads (sorted by name):")
		for _, p := range policies {
			cells := byPolicy[sim.Policy(p)]
			var vals []float64
			for _, wl := range stats.SortedKeys(cells) {
				vals = append(vals, cells[wl])
			}
			lo, hi := minMax(vals)
			fmt.Printf("  %-20s %s  [%.3f .. %.3f] over %d workload(s)\n",
				p, stats.Sparkline(vals), lo, hi, len(vals))
		}
	}
	return nil
}

// downsample shrinks vals to at most width points by averaging fixed-size
// groups, so long runs still fit one terminal line.
func downsample(vals []float64, width int) []float64 {
	if width <= 0 || len(vals) <= width {
		return vals
	}
	out := make([]float64, width)
	for i := range out {
		lo := i * len(vals) / width
		hi := (i + 1) * len(vals) / width
		if hi == lo {
			hi = lo + 1
		}
		sum := 0.0
		for _, v := range vals[lo:hi] {
			sum += v
		}
		out[i] = sum / float64(hi-lo)
	}
	return out
}

func gaugeSeries(samples []sim.MetricSample, name string) []float64 {
	var out []float64
	found := false
	for _, s := range samples {
		v, ok := s.Gauges[name]
		found = found || ok
		out = append(out, v)
	}
	if !found {
		return nil
	}
	return out
}

func scale(vals []float64, by float64) []float64 {
	for i := range vals {
		vals[i] *= by
	}
	return vals
}

func minMax(vals []float64) (lo, hi float64) {
	if len(vals) == 0 {
		return 0, 0
	}
	lo, hi = vals[0], vals[0]
	for _, v := range vals[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

func indent(s, by string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i, l := range lines {
		lines[i] = by + l
	}
	return strings.Join(lines, "\n") + "\n"
}

// spanView renders the observability view of a campaign: the top-N
// slowest cells (root spans) and the per-stage wall-time breakdown
// (cache-probe vs simulate vs verify vs journal-append) aggregated across
// every cell in the span file.
func spanView(path string, topN int) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	spans, err := obs.ReadJSONL(f)
	if err != nil {
		return err
	}
	if len(spans) == 0 {
		return fmt.Errorf("span file %s is empty", path)
	}

	// Roots are the cells; children are the stages. Retried stages (same
	// name, higher Seq) fold into the same stage bucket.
	type cell struct {
		name  string
		durNs int64
	}
	var cells []cell
	stageNs := make(map[string]int64)
	stageCount := make(map[string]int)
	var totalStageNs int64
	for _, s := range spans {
		if s.Parent == 0 {
			cells = append(cells, cell{name: s.Name, durNs: s.DurNs})
			continue
		}
		stageNs[s.Name] += s.DurNs
		stageCount[s.Name]++
		totalStageNs += s.DurNs
	}
	if len(cells) == 0 {
		return fmt.Errorf("span file %s has no root spans", path)
	}
	sort.SliceStable(cells, func(i, j int) bool {
		if cells[i].durNs != cells[j].durNs {
			return cells[i].durNs > cells[j].durNs
		}
		return cells[i].name < cells[j].name
	})
	if topN > len(cells) {
		topN = len(cells)
	}

	t := stats.NewTable(fmt.Sprintf("simscope: %d cell(s) in %s, %d slowest", len(cells), path, topN),
		"Cell", "Wall", "Share")
	var totalNs int64
	for _, c := range cells {
		totalNs += c.durNs
	}
	for _, c := range cells[:topN] {
		share := 0.0
		if totalNs > 0 {
			share = float64(c.durNs) / float64(totalNs)
		}
		t.AddRow(c.name, fmtNs(c.durNs), fmt.Sprintf("%.1f%%", share*100))
	}
	fmt.Println(t.String())

	st := stats.NewTable("stage breakdown (all cells)", "Stage", "Spans", "Wall", "Share")
	for _, name := range stats.SortedKeys(stageNs) {
		share := 0.0
		if totalStageNs > 0 {
			share = float64(stageNs[name]) / float64(totalStageNs)
		}
		st.AddRow(name, fmt.Sprintf("%d", stageCount[name]), fmtNs(stageNs[name]), fmt.Sprintf("%.1f%%", share*100))
	}
	fmt.Println(st.String())
	return nil
}

// fmtNs renders a wall-clock duration at ms precision (span durations are
// ns, but cell walls are tens to hundreds of ms).
func fmtNs(ns int64) string {
	return fmt.Sprintf("%.1fms", float64(ns)/1e6)
}
