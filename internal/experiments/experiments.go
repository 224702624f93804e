// Package experiments contains one runner per table and figure of the
// paper's evaluation (Section 6 plus the characterization tables earlier in
// the paper). cmd/paperbench and the repository's benchmark suite both call
// these runners; EXPERIMENTS.md records their output against the paper.
//
// Each runner returns a Report with the regenerated table (or series) and a
// short paper-vs-measured note. The runners deliberately share a memoizing
// Runner so a full paperbench pass simulates each (workload, config) pair
// once; the memo is a thin layer over the internal/campaign engine, so it
// can be backed by the same durable cache cmd/campaign uses.
package experiments

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/campaign"
	"repro/internal/multicore"
	"repro/internal/stats"
	"repro/internal/workload"
	"repro/sim"
)

// Options sizes the experiment runs.
type Options struct {
	// Instructions per measurement window (paper: 500M; default here
	// 150k — large enough for squash/miss statistics to converge).
	Instructions uint64
	// SpectreIterations for Figure 11 (paper: 100).
	SpectreIterations int
	// MTSteps per multithreaded workload for Figure 9.
	MTSteps int
}

// DefaultOptions returns the default experiment sizing.
func DefaultOptions() Options {
	return Options{Instructions: 150_000, SpectreIterations: 30, MTSteps: 30_000}
}

// Report is one regenerated experiment.
type Report struct {
	ID     string
	Title  string
	Tables []*stats.Table
	Notes  []string
}

// String renders the report.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s: %s ===\n", r.ID, r.Title)
	for _, t := range r.Tables {
		b.WriteString(t.String())
		b.WriteByte('\n')
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Markdown renders the report as markdown (for EXPERIMENTS.md).
func (r Report) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "## %s — %s\n\n", r.ID, r.Title)
	for _, t := range r.Tables {
		b.WriteString(t.Markdown())
		b.WriteByte('\n')
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "> %s\n\n", n)
	}
	return b.String()
}

// Runner memoizes simulation results across experiments. Since the
// campaign engine landed, the Runner is a thin layer over it: each run is
// keyed by the content-addressed campaign key of its fully resolved
// config (so two call sites that build the same effective configuration
// share a result, and two that differ in any simulated parameter never
// can), and pointing Engine.Cache at a directory makes the memo durable
// across processes.
type Runner struct {
	Opts Options
	// Engine executes and caches the individual runs. NewRunner attaches
	// a memory-only engine; callers may add a disk cache
	// (paperbench -cache) before the first run.
	Engine *campaign.Engine
	Quiet  bool

	memo map[string]sim.Result
	errs []error
}

// NewRunner creates a runner backed by a memory-only campaign engine.
func NewRunner(o Options) *Runner {
	return &Runner{Opts: o, Engine: campaign.NewEngine(), memo: make(map[string]sim.Result)}
}

// Errors returns the simulation failures accumulated so far. A failed
// cell no longer panics: it contributes NaN to its table rows and is
// reported here, so one bad configuration cannot kill a whole paperbench
// pass.
func (r *Runner) Errors() []error { return r.errs }

// run returns the memoized result for workload wl under policy p with an
// optional config modification. The memo key is derived from the resolved
// configuration itself, not from a caller-supplied label.
func (r *Runner) run(wl string, p sim.Policy, mod func(*sim.Config)) sim.Result {
	cfg := sim.Config{Policy: p, Instructions: r.Opts.Instructions}
	if mod != nil {
		mod(&cfg)
	}
	key, err := campaign.Key(wl, cfg)
	if err != nil {
		r.errs = append(r.errs, fmt.Errorf("%s/%s: %w", wl, p, err))
		return sim.Result{}
	}
	if res, ok := r.memo[key]; ok {
		return res
	}
	if !r.Quiet {
		fmt.Printf("  running %-10s %-22s...\n", wl, string(p))
	}
	res, _, err := r.Engine.RunOne(campaign.Job{Workload: wl, Config: cfg})
	if err != nil {
		r.errs = append(r.errs, fmt.Errorf("%s/%s: %w", wl, p, err))
		return sim.Result{}
	}
	r.memo[key] = res
	return res
}

// slowdown returns the normalized execution time of p vs the non-secure
// baseline for workload wl (NaN if either run failed).
func (r *Runner) slowdown(wl string, p sim.Policy, mod func(*sim.Config)) float64 {
	base := r.run(wl, sim.NonSecure, nil)
	res := r.run(wl, p, mod)
	if base.Cycles == 0 {
		return math.NaN()
	}
	return float64(res.Cycles) / float64(base.Cycles)
}

// workloads returns the Table 3 workload order.
func workloads() []string { return sim.Workloads() }

// Table1 regenerates Table 1: the cost of L1 random replacement and L2
// randomization on the non-secure baseline.
func (r *Runner) Table1() Report {
	t := stats.NewTable("Table 1: Impact of randomization vs LRU baseline",
		"Configuration", "Slowdown", "Paper")
	on := true
	var l1, l2, both []float64
	for _, wl := range workloads() {
		l1 = append(l1, r.slowdown(wl, sim.NonSecure, func(c *sim.Config) { c.L1RandomRepl = &on }))
		l2 = append(l2, r.slowdown(wl, sim.NonSecure, func(c *sim.Config) { c.RandomizeL2 = &on }))
		both = append(both, r.slowdown(wl, sim.NonSecure, func(c *sim.Config) {
			c.L1RandomRepl = &on
			c.RandomizeL2 = &on
		}))
	}
	t.AddRow("L1-Rand Replacement", fmt.Sprintf("%.1f%%", stats.Slowdown(stats.Geomean(l1))), "0.1%")
	t.AddRow("L2-Randomization", fmt.Sprintf("%.1f%%", stats.Slowdown(stats.Geomean(l2))), "0.4%")
	t.AddRow("Both Together", fmt.Sprintf("%.1f%%", stats.Slowdown(stats.Geomean(both))), "0.8%")
	return Report{
		ID: "table1", Title: "Randomization impact",
		Tables: []*stats.Table{t},
		Notes:  []string{"Paper: randomization alone costs <1%; the same near-free result should hold here."},
	}
}

// Table3 regenerates Table 3: measured workload characteristics against the
// paper's published targets.
func (r *Runner) Table3() Report {
	t := stats.NewTable("Table 3: Workload characteristics (measured vs paper)",
		"Workload", "Mispredict", "Paper", "L1-D Miss", "Paper")
	for _, wl := range workloads() {
		res := r.run(wl, sim.NonSecure, nil)
		p, _ := workload.ProfileByName(wl)
		t.AddRow(wl,
			fmt.Sprintf("%.1f%%", res.MispredictRate*100),
			fmt.Sprintf("%.1f%%", p.TargetMispredict*100),
			fmt.Sprintf("%.1f%%", res.L1MissRate*100),
			fmt.Sprintf("%.1f%%", p.TargetL1Miss*100))
	}
	return Report{
		ID: "table3", Title: "Workload characteristics",
		Tables: []*stats.Table{t},
		Notes: []string{
			"The synthetic workloads are calibrated to the paper's Table 3; measured rates should track the targets.",
		},
	}
}

// Table5 regenerates Table 5: cleanup statistics under CleanupSpec.
func (r *Runner) Table5() Report {
	t := stats.NewTable("Table 5: Cleanup statistics (CleanupSpec)",
		"Workload", "SquashPKI", "Loads/Squash", "NI%", "L1H%", "L2H%", "L2M%")
	for _, wl := range workloads() {
		res := r.run(wl, sim.CleanupSpec, nil)
		t.AddRow(wl,
			fmt.Sprintf("%.2f", res.SquashPKI),
			fmt.Sprintf("%.2f", res.LoadsPerSquash),
			fmt.Sprintf("%.0f", res.SquashedPctNI),
			fmt.Sprintf("%.0f", res.SquashedPctL1H),
			fmt.Sprintf("%.2f", res.SquashedPctL2H),
			fmt.Sprintf("%.2f", res.SquashedPctL2M))
	}
	return Report{
		ID: "table5", Title: "Cleanup statistics",
		Tables: []*stats.Table{t},
		Notes: []string{
			"Paper shape: NI+L1H dominate (>95% of squashed loads need no cleanup ops); L2H/L2M are rare;",
			"memory-bound workloads (lbm, milc, libq) skew toward L2M but squash rarely.",
		},
	}
}

// Table6 regenerates Table 6: average slowdowns of the three mitigations.
func (r *Runner) Table6() Report {
	t := stats.NewTable("Table 6: Slowdown vs non-secure baseline",
		"Configuration", "Avg Slowdown", "Paper")
	var ini, rev, cs []float64
	for _, wl := range workloads() {
		ini = append(ini, r.slowdown(wl, sim.InvisiSpecInitial, nil))
		rev = append(rev, r.slowdown(wl, sim.InvisiSpecRevised, nil))
		cs = append(cs, r.slowdown(wl, sim.CleanupSpec, nil))
	}
	t.AddRow("InvisiSpec (initial estimates)", fmt.Sprintf("%.1f%%", stats.Slowdown(stats.Geomean(ini))), "67.5%")
	t.AddRow("InvisiSpec (revised)", fmt.Sprintf("%.1f%%", stats.Slowdown(stats.Geomean(rev))), "15%")
	t.AddRow("CleanupSpec", fmt.Sprintf("%.1f%%", stats.Slowdown(stats.Geomean(cs))), "5.1%")
	return Report{
		ID: "table6", Title: "Slowdown comparison (headline result)",
		Tables: []*stats.Table{t},
		Notes: []string{
			"Shape to reproduce: CleanupSpec < InvisiSpec-Revised << InvisiSpec-Initial.",
		},
	}
}

// Table6Extended is Table 6 widened with the repository's additional
// baselines (not in the paper): the delay-based mitigations of Section
// 7.3.2. Run via `paperbench -exp table6x`.
func (r *Runner) Table6Extended() Report {
	t := stats.NewTable("Table 6 (extended): every policy vs non-secure baseline",
		"Configuration", "Avg Slowdown", "Paper / source")
	rows := []struct {
		p     sim.Policy
		paper string
	}{
		{sim.InvisiSpecInitial, "67.5% (paper)"},
		{sim.InvisiSpecRevised, "15% (paper)"},
		{sim.CleanupSpec, "5.1% (paper)"},
		{sim.DelayAll, "~20%+ (NDA/SpecShield-class)"},
		{sim.DelayOnMiss, "Conditional Speculation-class"},
		{sim.ValuePredict, "~10% (Sakalis et al.)"},
	}
	for _, row := range rows {
		var xs []float64
		for _, wl := range workloads() {
			xs = append(xs, r.slowdown(wl, row.p, nil))
		}
		t.AddRow(string(row.p), fmt.Sprintf("%.1f%%", stats.Slowdown(stats.Geomean(xs))), row.paper)
	}
	return Report{
		ID: "table6x", Title: "Slowdown comparison across all implemented mitigations",
		Tables: []*stats.Table{t},
		Notes: []string{
			"Beyond the paper's three configurations: the delay-based related-work baselines of Section 7.3.2.",
			"Expected ordering: CleanupSpec cheapest, delay-based filters in between, InvisiSpec-Initial worst.",
		},
	}
}

// Figure4 regenerates Figure 4: InvisiSpec's execution time and network
// traffic, normalized to the non-secure baseline.
func (r *Runner) Figure4() Report {
	tt := stats.NewTable("Figure 4(a): InvisiSpec-Initial normalized execution time",
		"Workload", "Normalized Time")
	tr := stats.NewTable("Figure 4(b): InvisiSpec-Initial normalized traffic (breakdown)",
		"Workload", "Total", "Regular", "Invisible", "Update")
	var times, traffics []float64
	for _, wl := range workloads() {
		base := r.run(wl, sim.NonSecure, nil)
		inv := r.run(wl, sim.InvisiSpecInitial, nil)
		nt := float64(inv.Cycles) / float64(base.Cycles)
		times = append(times, nt)
		tt.AddRow(wl, fmt.Sprintf("%.2f", nt))
		baseTotal := float64(base.Traffic.Total())
		norm := func(x uint64) float64 { return float64(x) / baseTotal }
		total := norm(inv.Traffic.Total())
		traffics = append(traffics, total)
		tr.AddRow(wl,
			fmt.Sprintf("%.2f", total),
			fmt.Sprintf("%.2f", norm(inv.Traffic.Regular+inv.Traffic.Writebacks)),
			fmt.Sprintf("%.2f", norm(inv.Traffic.Invisible)),
			fmt.Sprintf("%.2f", norm(inv.Traffic.Update)))
	}
	return Report{
		ID: "fig4", Title: "InvisiSpec overheads (execution time and traffic)",
		Tables: []*stats.Table{tt, tr},
		Notes: []string{
			fmt.Sprintf("Measured geomean time %.2fx (paper 1.675x), traffic %.2fx (paper ~1.51x).",
				stats.Geomean(times), stats.Geomean(traffics)),
			"Paper: about half the traffic is speculative (invisible) loads, a quarter update loads.",
		},
	}
}

// Figure9 regenerates Figure 9: the load breakdown by line state for the 23
// multithreaded workloads on 4 cores.
func (r *Runner) Figure9() Report {
	t := stats.NewTable("Figure 9: Loads by line state (4 cores)",
		"Workload", "SafeCache%", "SafeDRAM%", "Unsafe(Remote-E/M)%")
	var unsafe []float64
	for _, p := range workload.MTProfiles() {
		st := multicore.New(p, 4).Run(r.Opts.MTSteps)
		unsafe = append(unsafe, st.UnsafeFrac())
		t.AddRow(p.Name,
			fmt.Sprintf("%.1f", st.SafeCacheFrac()*100),
			fmt.Sprintf("%.1f", st.SafeDRAMFrac()*100),
			fmt.Sprintf("%.2f", st.UnsafeFrac()*100))
	}
	t.AddRow("AVG", "", "", fmt.Sprintf("%.2f", stats.Mean(unsafe)*100))
	return Report{
		ID: "fig9", Title: "Remote-E/M load characterization",
		Tables: []*stats.Table{t},
		Notes: []string{
			fmt.Sprintf("Measured average unsafe share %.1f%% (paper: 2.4%%); delaying these loads is cheap.",
				stats.Mean(unsafe)*100),
		},
	}
}

// Figure11 regenerates Figure 11: the Spectre V1 PoC probe latencies under
// the non-secure baseline and CleanupSpec.
func (r *Runner) Figure11() Report {
	ns, err := sim.RunSpectre(sim.NonSecure, r.Opts.SpectreIterations)
	if err != nil {
		panic(err)
	}
	cs, err := sim.RunSpectre(sim.CleanupSpec, r.Opts.SpectreIterations)
	if err != nil {
		panic(err)
	}
	t := stats.NewTable("Figure 11: Spectre V1 probe latency by array2 index (cycles)",
		"Index", "NonSecure", "CleanupSpec", "Role")
	for k := 0; k < len(ns.AvgLatency); k++ {
		role := ""
		if k == ns.Secret {
			role = "SECRET"
		}
		for _, bi := range ns.BenignIndices {
			if k == bi {
				role = "benign (trained)"
			}
		}
		if role == "" && k%8 != 0 {
			continue // keep the table readable; benign+secret always shown
		}
		t.AddRow(fmt.Sprintf("%d", k),
			fmt.Sprintf("%.0f", ns.AvgLatency[k]),
			fmt.Sprintf("%.0f", cs.AvgLatency[k]), role)
	}
	verdict := func(leaked bool) string {
		if leaked {
			return "LEAKED"
		}
		return "no leak"
	}
	return Report{
		ID: "fig11", Title: "Spectre V1 proof-of-concept defense",
		Tables: []*stats.Table{t},
		Notes: []string{
			fmt.Sprintf("NonSecure: %s (inferred %d, planted %d). CleanupSpec: %s.",
				verdict(ns.Leaked), ns.Inferred, ns.Secret, verdict(cs.Leaked)),
			"Paper: CleanupSpec shows no latency dip at the secret index while benign indices stay fast.",
		},
	}
}

// Figure12 regenerates Figure 12: per-workload CleanupSpec slowdown.
func (r *Runner) Figure12() Report {
	t := stats.NewTable("Figure 12: CleanupSpec execution time (normalized)",
		"Workload", "Normalized", "Slowdown")
	var xs []float64
	for _, wl := range workloads() {
		s := r.slowdown(wl, sim.CleanupSpec, nil)
		xs = append(xs, s)
		t.AddRow(wl, fmt.Sprintf("%.3f", s), fmt.Sprintf("%+.1f%%", stats.Slowdown(s)))
	}
	g := stats.Geomean(xs)
	t.AddRow("Avg(geomean)", fmt.Sprintf("%.3f", g), fmt.Sprintf("%+.1f%%", stats.Slowdown(g)))
	return Report{
		ID: "fig12", Title: "CleanupSpec slowdown per workload",
		Tables: []*stats.Table{t},
		Notes: []string{
			"Paper: 5.1% average; high-mispredict and high-missrate workloads (astar, bzip2, sphinx3, soplex)",
			"show the largest slowdowns while predictable memory-bound ones (lbm, milc, libq) are near zero.",
		},
	}
}

// Figure12Variance reruns the Figure 12 average under several hierarchy
// randomization seeds — a robustness check that the headline slowdown is
// not an artifact of one CEASER key or replacement stream. Run via
// `paperbench -exp fig12var` (not part of All: it triples the run count).
func (r *Runner) Figure12Variance() Report {
	t := stats.NewTable("Figure 12 (variance): CleanupSpec average slowdown by seed",
		"Seed", "Avg Slowdown")
	lo, hi := 0.0, 0.0
	for i, seed := range []uint64{1, 7, 42} {
		var xs []float64
		for _, wl := range workloads() {
			base := r.run(wl, sim.NonSecure, func(c *sim.Config) { c.Seed = seed })
			res := r.run(wl, sim.CleanupSpec, func(c *sim.Config) { c.Seed = seed })
			xs = append(xs, float64(res.Cycles)/float64(base.Cycles))
		}
		s := stats.Slowdown(stats.Geomean(xs))
		if i == 0 || s < lo {
			lo = s
		}
		if i == 0 || s > hi {
			hi = s
		}
		t.AddRow(fmt.Sprintf("%d", seed), fmt.Sprintf("%.1f%%", s))
	}
	return Report{
		ID: "fig12var", Title: "Seed sensitivity of the headline slowdown",
		Tables: []*stats.Table{t},
		Notes: []string{
			fmt.Sprintf("Spread across seeds: %.1f–%.1f%%.", lo, hi),
		},
	}
}

// Figure13 regenerates Figure 13: squash frequency.
func (r *Runner) Figure13() Report {
	t := stats.NewTable("Figure 13: Squashes per kilo-instruction (CleanupSpec)",
		"Workload", "Squash PKI")
	for _, wl := range workloads() {
		res := r.run(wl, sim.CleanupSpec, nil)
		t.AddRow(wl, fmt.Sprintf("%.2f", res.SquashPKI))
	}
	return Report{
		ID: "fig13", Title: "Squash frequency",
		Tables: []*stats.Table{t},
		Notes: []string{
			"Shape: squash frequency falls left to right (Table 3 is ordered by mispredict rate) and",
			"workloads with more squashes typically slow down more.",
		},
	}
}

// Figure14 regenerates Figure 14: stall time per squash, split into the
// inflight-wait and actual-cleanup components.
func (r *Runner) Figure14() Report {
	t := stats.NewTable("Figure 14: Stall per squash (cycles, CleanupSpec)",
		"Workload", "InflightWait", "CleanupOps", "Total")
	for _, wl := range workloads() {
		res := r.run(wl, sim.CleanupSpec, nil)
		t.AddRow(wl,
			fmt.Sprintf("%.1f", res.WaitPerSquash),
			fmt.Sprintf("%.1f", res.CleanupPerSquash),
			fmt.Sprintf("%.1f", res.WaitPerSquash+res.CleanupPerSquash))
	}
	return Report{
		ID: "fig14", Title: "Cleanup stall breakdown",
		Tables: []*stats.Table{t},
		Notes: []string{
			"Paper: ~25 cycles per squash on average, of which ~20 wait for in-flight correct-path loads",
			"and only ~5 are actual cleanup operations. The wait overlaps the pipeline refill (Section 2.4).",
		},
	}
}

// Figure15 regenerates Figure 15: of the squashed L1-misses, how many were
// still in flight (dropped for free) vs executed (needing cleanup ops).
func (r *Runner) Figure15() Report {
	t := stats.NewTable("Figure 15: Squashed L1-misses, inflight vs executed (CleanupSpec)",
		"Workload", "Inflight%", "Executed%")
	for _, wl := range workloads() {
		res := r.run(wl, sim.CleanupSpec, nil)
		t.AddRow(wl,
			fmt.Sprintf("%.0f", res.InflightFrac*100),
			fmt.Sprintf("%.0f", res.ExecutedFrac*100))
	}
	return Report{
		ID: "fig15", Title: "Inflight vs executed cleanup loads",
		Tables: []*stats.Table{t},
		Notes: []string{
			"Paper: ~50% of squashed L1-misses are still in flight; dropping their pending fill costs nothing.",
		},
	}
}

// Storage regenerates the Section 6.6 storage-overhead calculation.
func (r *Runner) Storage() Report {
	t := stats.NewTable("Section 6.6: SEFE storage overhead per core",
		"Component", "Entries", "Bits/entry", "Bytes")
	t.AddRow("LQ SEFE", "32", "56", fmt.Sprintf("%d", 32*56/8))
	t.AddRow("L1-MSHR SEFE", "64", "56", fmt.Sprintf("%d", 64*56/8))
	t.AddRow("L2-MSHR SEFE", "64", "16", fmt.Sprintf("%d", 64*16/8))
	t.AddRow("Total", "", "", fmt.Sprintf("%d", sim.StorageOverheadBytes()))
	return Report{
		ID: "storage", Title: "Storage overhead",
		Tables: []*stats.Table{t},
		Notes: []string{
			fmt.Sprintf("Measured %d bytes per core; the paper promises < 1 KB.", sim.StorageOverheadBytes()),
		},
	}
}
