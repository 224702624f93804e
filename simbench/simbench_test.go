package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"

	"repro/internal/campaign"
	"repro/internal/specfuzz"
	"repro/sim"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricDeclarations(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDecl{}, endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.name) {
			t.Errorf("metric name %q does not match %s", d.name, nameRE)
		}
		if !unitRE.MatchString(d.unit) {
			t.Errorf("metric %s: unit %q does not match %s", d.name, d.unit, unitRE)
		}
		if d.better != "lower" && d.better != "higher" {
			t.Errorf("metric %s: better = %q", d.name, d.better)
		}
		if seen[d.name] {
			t.Errorf("metric %s declared twice", d.name)
		}
		seen[d.name] = true
	}
}

// TestBenchmarkJSON holds BENCHMARK.json to the workloads and metrics the
// program declares.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command   []string
		Paths     []string
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var listed []workload
	for _, w := range workloads {
		if !w.unlisted {
			listed = append(listed, w)
		}
	}
	if len(spec.Workloads) != len(listed) {
		t.Fatalf("BENCHMARK.json has %d workloads, program lists %d", len(spec.Workloads), len(listed))
	}
	for i, w := range listed {
		if got := spec.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, program has %s: %s", i, got, w.name, w.why)
		}
	}
	check := func(kind string, got []metricDecl, want []metricDecl) {
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s metrics in BENCHMARK.json differ from the program's:\n got %v\nwant %v", kind, got, want)
		}
	}
	var e2e, layer []metricDecl
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, metricDecl{m.Name, m.Unit, m.Better})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range spec.PerLayer {
		layer = append(layer, metricDecl{m.Name, m.Unit, m.Better})
	}
	check("end_to_end", e2e, endToEnd)
	check("per_layer", layer, perLayer)
}

// tiny shrinks a workload so a test can run it: one profile at a 2k
// window for the grids, one gadget per stratum for the fuzz workload.
func tiny(w workload) workload {
	if w.fuzz() {
		w.perStratum = 1
		return w
	}
	w.grid = w.grid[:1]
	w.instructions = 2_000
	return w
}

func TestTinyRunsPassTheirChecks(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, err := untracedMain(tiny(w), t.TempDir(), 3, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			for _, d := range endToEnd {
				mv, ok := res.Metrics[d.name]
				if !ok || mv.Unit != d.unit {
					t.Errorf("metric %s missing or mis-united: %+v", d.name, mv)
				} else if !(mv.Value > 0) {
					t.Errorf("metric %s = %v, want > 0", d.name, mv.Value)
				}
			}
		})
	}
}

// TestTinyTracedRuns checks that the traced run's rebuilt cells reproduce
// the untraced statistics (it fails otherwise) and that it reports every
// per-layer metric.
func TestTinyTracedRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("traced runs take a few seconds")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, err := tracedMain(tiny(w), t.TempDir(), 3, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			for _, d := range perLayer {
				if _, ok := res.Metrics[d.name]; !ok {
					t.Errorf("metric %s missing", d.name)
				}
			}
			if v := res.Metrics["sim.cell_samples"].Value; v == 0 {
				t.Error("no rebuilt simulations were timed")
			}
		})
	}
}

func TestSeedChangesInputs(t *testing.T) {
	jobs := func(w workload, seed uint64) ([]campaign.Job, []specfuzz.GadgetSpec) {
		p, err := w.prepare(t.TempDir(), seed, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer p.close()
		return p.jobs, p.specs
	}
	for _, w := range workloads {
		j1, s1 := jobs(w, 1)
		j1again, _ := jobs(w, 1)
		j2, s2 := jobs(w, 2)
		if !reflect.DeepEqual(j1, j1again) {
			t.Errorf("%s: the same seed gave different jobs", w.name)
		}
		if w.fuzz() {
			if reflect.DeepEqual(s1, s2) {
				t.Errorf("%s: seeds 1 and 2 gave the same gadgets", w.name)
			}
			continue
		}
		for i := range j1 {
			if j1[i].Config.Seed != 1 || j2[i].Config.Seed != 2 {
				t.Fatalf("%s: job %d hierarchy seeds %d/%d, want 1/2", w.name, i, j1[i].Config.Seed, j2[i].Config.Seed)
			}
		}
	}
}

// TestCheckCountsFailures feeds the output check cells that must fail:
// an errored grid cell, and a fuzz leak surviving a defense.
func TestCheckCountsFailures(t *testing.T) {
	grid := tiny(workloads[0])
	p, err := grid.prepare(t.TempDir(), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer p.close()
	cold := p.run()
	cold.results[0].Err = os.ErrInvalid
	if c := grid.check(p, cold); c.nFailed() != 1 {
		t.Errorf("grid: %d failed cells, want 1 (%v)", c.nFailed(), c.problems)
	}

	fuzz := tiny(workloads[2])
	p, err = fuzz.prepare(t.TempDir(), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer p.close()
	cold = p.run()
	for i, jr := range cold.results {
		if jr.Job.Config.Policy != sim.CleanupSpec {
			continue
		}
		v, err := specfuzz.DecodeVerdict(jr.Aux)
		if err != nil {
			t.Fatal(err)
		}
		v.Leak = true
		cold.results[i].Aux, _ = json.Marshal(v)
		break
	}
	c := fuzz.check(p, cold)
	if c.survivors != 1 || c.nFailed() < 1 {
		t.Errorf("fuzz: survivors=%d failed=%d, want a counted survivor", c.survivors, c.nFailed())
	}
}
