// Command simlint runs the simulator-specific static-analysis suite
// (package repro/internal/analysis) over this module and prints its
// findings. `simlint -list` names every analyzer with a one-line summary;
// the analysis package comment describes what each one guards.
//
// Usage:
//
//	simlint [-json] [-enable a,b] [-disable a,b] [packages]
//	simlint -hotreport [> HOTPATH_BUDGET.json]
//	simlint -hotbudget HOTPATH_BUDGET.json
//
// Packages are directory patterns relative to the current directory
// ("./...", "./internal/campaign", "./internal/..."); the default is the
// whole module. Findings print as file:line:col text, or as a JSON array
// with -json. Exit status is 1 when findings are reported, 2 on a load or
// usage error, 0 when clean.
//
// -hotreport prints the hot-path allocation budget report: every
// function reachable from the hot roots that still carries allocation
// sites (suppressed or not), with per-kind counts. The report is
// deterministic. -hotbudget compares the current report against a
// committed budget and exits 1 on any growth — new allocating functions,
// per-kind increases, total growth, or a changed root set; shrinkage is
// re-recorded, never failed, so the budget ratchets monotonically
// downward.
//
// Suppressions require a justification; map-order findings take only the
// first form:
//
//	//simlint:ordered -- <why iteration order is irrelevant>
//	//simlint:allow <analyzer> -- <why this is safe>
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/analysis"
)

func main() {
	os.Exit(run())
}

func run() int {
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array")
	enable := flag.String("enable", "", "comma-separated analyzers to run (default: all)")
	disable := flag.String("disable", "", "comma-separated analyzers to skip")
	list := flag.Bool("list", false, "list analyzers and exit")
	hotreport := flag.Bool("hotreport", false, "emit the hot-path allocation budget report as JSON and exit")
	hotbudget := flag.String("hotbudget", "", "compare the hot-path report against this committed budget `file`; exit 1 on growth")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: simlint [-json] [-enable a,b] [-disable a,b] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range analysis.Analyzers() {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	analyzers, err := selectAnalyzers(*enable, *disable)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simlint:", err)
		return 2
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "simlint:", err)
		return 2
	}
	mod, err := analysis.Load(cwd)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simlint:", err)
		return 2
	}
	match, err := packageMatcher(cwd, mod, flag.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "simlint:", err)
		return 2
	}

	runner := analysis.NewRunner(mod)

	if *hotreport || *hotbudget != "" {
		return runHotReport(runner, *hotreport, *hotbudget)
	}

	findings := runner.Run(analyzers, match)

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if findings == nil {
			findings = []analysis.Finding{}
		}
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintln(os.Stderr, "simlint:", err)
			return 2
		}
	} else {
		for _, f := range findings {
			rel := f
			if r, err := filepath.Rel(cwd, f.Pos.Filename); err == nil && !strings.HasPrefix(r, "..") {
				rel.Pos.Filename = r
			}
			fmt.Println(rel)
		}
	}
	if len(findings) > 0 {
		return 1
	}
	return 0
}

// runHotReport serves -hotreport/-hotbudget: it builds the hot-path
// allocation budget report (deterministic), optionally prints it, and optionally enforces it
// against a committed budget file. Re-record a legitimately changed
// budget with `simlint -hotreport > HOTPATH_BUDGET.json`.
func runHotReport(runner *analysis.Runner, print bool, budgetFile string) int {
	rep := runner.HotReport()
	if print {
		blob, err := rep.MarshalIndent()
		if err != nil {
			fmt.Fprintln(os.Stderr, "simlint:", err)
			return 2
		}
		os.Stdout.Write(blob)
	}
	if budgetFile == "" {
		return 0
	}
	data, err := os.ReadFile(budgetFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simlint:", err)
		return 2
	}
	budget, err := analysis.ParseHotReport(data)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simlint:", err)
		return 2
	}
	violations := analysis.CompareHotBudget(budget, rep)
	for _, v := range violations {
		fmt.Println(v)
	}
	if len(violations) > 0 {
		fmt.Fprintf(os.Stderr, "simlint: hot-path allocation budget exceeded (%d violation(s)); fix the allocation or justify it with //simlint:allow hotalloc, then re-record with simlint -hotreport > %s\n", len(violations), budgetFile)
		return 1
	}
	fmt.Fprintf(os.Stderr, "simlint: hot-path budget ok (%d sites across %d functions)\n", rep.Total, len(rep.Functions))
	return 0
}

// selectAnalyzers applies -enable/-disable to the suite.
func selectAnalyzers(enable, disable string) ([]*analysis.Analyzer, error) {
	names := func(csv string) (map[string]bool, error) {
		out := make(map[string]bool)
		for _, n := range strings.Split(csv, ",") {
			n = strings.TrimSpace(n)
			if n == "" {
				continue
			}
			if _, ok := analysis.AnalyzerByName(n); !ok {
				return nil, fmt.Errorf("unknown analyzer %q (try -list)", n)
			}
			out[n] = true
		}
		return out, nil
	}
	on, err := names(enable)
	if err != nil {
		return nil, err
	}
	off, err := names(disable)
	if err != nil {
		return nil, err
	}
	var out []*analysis.Analyzer
	for _, a := range analysis.Analyzers() {
		if len(on) > 0 && !on[a.Name] {
			continue
		}
		if off[a.Name] {
			continue
		}
		out = append(out, a)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no analyzers selected")
	}
	return out, nil
}

// packageMatcher turns CLI patterns into a package predicate. Patterns are
// directory paths relative to cwd; a trailing /... matches the whole
// subtree. No patterns (or "./...") selects every package.
func packageMatcher(cwd string, mod *analysis.Module, patterns []string) (func(*analysis.Package) bool, error) {
	if len(patterns) == 0 {
		return nil, nil
	}
	type rule struct {
		dir     string
		subtree bool
	}
	var rules []rule
	for _, pat := range patterns {
		r := rule{dir: pat}
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			r.subtree = true
			r.dir = rest
			if r.dir == "" || r.dir == "." {
				r.dir = "."
			}
		}
		if !filepath.IsAbs(r.dir) {
			r.dir = filepath.Join(cwd, r.dir)
		}
		r.dir = filepath.Clean(r.dir)
		rules = append(rules, r)
	}
	return func(p *analysis.Package) bool {
		for _, r := range rules {
			if p.Dir == r.dir {
				return true
			}
			if r.subtree && strings.HasPrefix(p.Dir, r.dir+string(filepath.Separator)) {
				return true
			}
		}
		return false
	}, nil
}
