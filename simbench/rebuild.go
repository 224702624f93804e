package main

import (
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/arch"
	"repro/internal/campaign"
	"repro/internal/cpu"
	"repro/internal/memsys"
	"repro/internal/metrics"
	"repro/internal/specfuzz"
	profiles "repro/internal/workload"
	"repro/sim"
)

// timedPolicy wraps the cpu.Policy that sim.BuildPolicy returns and times
// every hook call. It observes only: each call forwards to the wrapped
// policy with the same arguments and returns its result.
type timedPolicy struct {
	inner cpu.Policy
	st    policyStats
}

// policyStats is what the wrapper counts for one cell.
type policyStats struct {
	ModeCalls    uint64  `json:"mode_calls"`
	SquashCalls  uint64  `json:"squash_calls"`
	HookNs       int64   `json:"hook_ns"`
	SquashNsHist durHist `json:"squash_ns_hist"`
}

func (s *policyStats) merge(o *policyStats) {
	s.ModeCalls += o.ModeCalls
	s.SquashCalls += o.SquashCalls
	s.HookNs += o.HookNs
	s.SquashNsHist.merge(&o.SquashNsHist)
}

func (p *timedPolicy) Name() string { return p.inner.Name() }

func (p *timedPolicy) Mode(m *cpu.Machine, e *cpu.LQEntry, spec bool) cpu.LoadMode {
	t := time.Now()
	mode := p.inner.Mode(m, e, spec)
	p.st.HookNs += int64(time.Since(t))
	p.st.ModeCalls++
	return mode
}

func (p *timedPolicy) DeferWakeupUntilVisible() bool { return p.inner.DeferWakeupUntilVisible() }

func (p *timedPolicy) OnLoadUnsquashable(m *cpu.Machine, e *cpu.LQEntry) {
	t := time.Now()
	p.inner.OnLoadUnsquashable(m, e)
	p.st.HookNs += int64(time.Since(t))
}

func (p *timedPolicy) OnLoadNearCommit(m *cpu.Machine, e *cpu.LQEntry) {
	t := time.Now()
	p.inner.OnLoadNearCommit(m, e)
	p.st.HookNs += int64(time.Since(t))
}

func (p *timedPolicy) CommitWait(m *cpu.Machine, e *cpu.LQEntry) arch.Cycle {
	t := time.Now()
	w := p.inner.CommitWait(m, e)
	p.st.HookNs += int64(time.Since(t))
	return w
}

func (p *timedPolicy) OnLoadCommitted(m *cpu.Machine, e *cpu.LQEntry) {
	t := time.Now()
	p.inner.OnLoadCommitted(m, e)
	p.st.HookNs += int64(time.Since(t))
}

func (p *timedPolicy) OnSquash(m *cpu.Machine, squashed []cpu.SquashedLoad) cpu.SquashCost {
	t := time.Now()
	c := p.inner.OnSquash(m, squashed)
	d := int64(time.Since(t))
	p.st.HookNs += d
	p.st.SquashCalls++
	p.st.SquashNsHist.add(d)
	return c
}

func (p *timedPolicy) DropSquashedInflight() bool { return p.inner.DropSquashedInflight() }

// PredictValue forwards cpu.ValuePredictor: the core type-asserts it on
// the policy it holds whenever a load issues in LoadValuePredict mode,
// which only the value-predict policy (a ValuePredictor) returns.
func (p *timedPolicy) PredictValue(m *cpu.Machine, e *cpu.LQEntry) uint64 {
	t := time.Now()
	v := p.inner.(cpu.ValuePredictor).PredictValue(m, e)
	p.st.HookNs += int64(time.Since(t))
	return v
}

// simTiming is the host-time breakdown of one rebuilt simulation.
type simTiming struct {
	SetupNs   int64  `json:"setup_ns"`   // program build + BuildPolicy + memsys.New + prewarm + cpu.New
	PrewarmNs int64  `json:"prewarm_ns"` // PrewarmL2 + PrewarmICache, part of SetupNs
	WarmupNs  int64  `json:"warmup_ns"`  // warmup Machine.Run
	RunNs     int64  `json:"run_ns"`     // every Machine.Run call, warmup included
	Cycles    uint64 `json:"cycles"`     // simulated cycles over every Run call
	Commits   uint64 `json:"commits"`    // committed instructions over every Run call

	Policy policyStats `json:"policy"`
}

func (t simTiming) cellNs() int64 { return t.SetupNs + t.RunNs }

// rebuildKind is the campaign cell kind of a traced grid cell: the same
// workload and config as a plain simulation cell, executed by
// rebuildCell instead of sim.RunWorkload.
const rebuildKind = campaign.CellKind("simbench-rebuild")

// rebuildCell is a CellFunc that rebuilds a grid cell from the
// simulator's public pieces — profile Build, sim.BuildPolicy, memsys.New,
// PrewarmL2/PrewarmICache, cpu.New with the resolved MaxCycles and
// WatchdogWindow, warmup Run, ResetStats, window Run — timing each piece.
// It must reproduce sim.RunWorkload's statistics exactly; the traced run
// compares the two. The timing travels as the cell's Aux payload.
func rebuildCell(job campaign.Job) (sim.Result, json.RawMessage, error) {
	cfg := job.Config.Resolved()
	var tm simTiming
	start := time.Now()
	prof, ok := profiles.ProfileByName(job.Workload)
	if !ok {
		return sim.Result{}, nil, fmt.Errorf("rebuild: unknown workload %q", job.Workload)
	}
	prog := prof.Build()
	pol, hcfg, err := sim.BuildPolicy(cfg)
	if err != nil {
		return sim.Result{}, nil, err
	}
	tp := &timedPolicy{inner: pol}
	h := memsys.New(hcfg)
	if !cfg.NoWarmup {
		t := time.Now()
		base, size := prof.ColdRegion()
		for off := 0; off < size; off += 64 {
			h.PrewarmL2(arch.Addr(base + uint64(off)).Line())
		}
		h.PrewarmICache(0, len(prog.Code))
		tm.PrewarmNs = int64(time.Since(t))
	}
	ccfg := cpu.DefaultConfig()
	ccfg.MaxCycles = arch.Cycle(cfg.MaxCycles)
	ccfg.WatchdogWindow = arch.Cycle(cfg.WatchdogWindow)
	m := cpu.New(ccfg, prog, h, tp)
	if cfg.Trace != nil {
		m.AttachTracer(cfg.Trace)
	}
	tm.SetupNs = int64(time.Since(start))

	if cfg.Warmup > 0 {
		t := time.Now()
		st := m.Run(cfg.Warmup)
		tm.WarmupNs = int64(time.Since(t))
		tm.RunNs += tm.WarmupNs
		tm.Cycles += st.Cycles
		tm.Commits += st.Committed
		if lerr := m.LivelockErr(); lerr != nil {
			return sim.Result{}, nil, fmt.Errorf("rebuild: %s (warmup): %w", job.Workload, lerr)
		}
		if !m.Halted() {
			m.ResetStats()
			h.ResetStats()
		}
	}
	// The engine hands every fresh cell a metrics collector, so the plain
	// cell runs with counters bound; bind them here too.
	if cfg.Metrics != nil {
		reg := metrics.NewRegistry()
		m.AttachMetrics(reg)
		h.AttachMetrics(reg)
		if pa, ok := pol.(interface{ AttachMetrics(*metrics.Registry) }); ok {
			pa.AttachMetrics(reg)
		}
	}
	t := time.Now()
	st := m.Run(cfg.Instructions)
	tm.RunNs += int64(time.Since(t))
	tm.Cycles += st.Cycles
	tm.Commits += st.Committed
	if lerr := m.LivelockErr(); lerr != nil {
		return sim.Result{}, nil, fmt.Errorf("rebuild: %s: %w", job.Workload, lerr)
	}
	tm.Policy = tp.st
	res := sim.Result{
		Workload: job.Workload, Policy: cfg.Policy,
		Cycles: st.Cycles, Instructions: st.Committed, IPC: st.IPC(),
		Traffic: h.Traffic, CPU: st, Mem: h.Stats,
	}
	aux, err := json.Marshal(tm)
	return res, aux, err
}

// gadgetMaxCycles mirrors the specfuzz oracle's per-run cycle bound.
const gadgetMaxCycles = 20_000_000

// fuzzSim is one rebuilt gadget simulation.
type fuzzSim struct {
	pol    sim.Policy
	timing simTiming
	cpu    cpu.Stats
	mem    memsys.Stats
	traf   memsys.Traffic
	snap   memsys.Snapshot
}

// rebuildGadgetRun rebuilds one of the four simulations of a specfuzz
// differential pair from public pieces (sim.BuildPolicy,
// specfuzz.BuildProgram, memsys.New, cpu.New, Machine.Run), timing each.
func rebuildGadgetRun(s specfuzz.GadgetSpec, secret int, cfg sim.Config, mode specfuzz.BuildMode) (fuzzSim, error) {
	out := fuzzSim{pol: cfg.Policy}
	start := time.Now()
	pol, hcfg, err := sim.BuildPolicy(cfg)
	if err != nil {
		return out, err
	}
	tp := &timedPolicy{inner: pol}
	prog, err := specfuzz.BuildProgram(s, secret, mode, specfuzz.GeometryOf(hcfg))
	if err != nil {
		return out, err
	}
	mcfg := cpu.DefaultConfig()
	mcfg.MaxCycles = gadgetMaxCycles
	h := memsys.New(hcfg)
	m := cpu.New(mcfg, prog, h, tp)
	out.timing.SetupNs = int64(time.Since(start))
	t := time.Now()
	st := m.Run(0)
	out.timing.RunNs = int64(time.Since(t))
	if !m.Halted() {
		return out, fmt.Errorf("rebuild: gadget %s (%s, %s) did not halt", s.ID, cfg.Policy, mode)
	}
	out.timing.Cycles, out.timing.Commits = st.Cycles, st.Committed
	out.timing.Policy = tp.st
	out.cpu, out.mem, out.traf = st, h.Stats, h.Traffic
	if mode == specfuzz.ModeState {
		out.snap = m.SnapshotHierarchy()
	}
	return out, nil
}

// rebuildPair rebuilds a fuzz cell's four simulations and checks that the
// state-mode runs reproduce the oracle's hierarchy-state verdict exactly.
func rebuildPair(s specfuzz.GadgetSpec, cfg sim.Config, want specfuzz.Verdict) ([]fuzzSim, error) {
	var sims []fuzzSim
	for _, mode := range []specfuzz.BuildMode{specfuzz.ModeTiming, specfuzz.ModeState} {
		for _, secret := range []int{s.SecretA, s.SecretB} {
			fs, err := rebuildGadgetRun(s, secret, cfg, mode)
			if err != nil {
				return nil, err
			}
			sims = append(sims, fs)
		}
	}
	var diffs []string
	for _, d := range sims[2].snap.Diff(sims[3].snap) {
		diffs = append(diffs, d.String())
	}
	if fmt.Sprint(diffs) != fmt.Sprint(want.StateDiffs) {
		return nil, fmt.Errorf("rebuild: gadget %s under %s: state diff %v, oracle saw %v", s.ID, cfg.Policy, diffs, want.StateDiffs)
	}
	return sims, nil
}
