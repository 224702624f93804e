package attack

import (
	"repro/internal/arch"
	"repro/internal/cache"
	"repro/internal/ceaser"
	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/memsys"
	"repro/internal/xrand"
)

// PrimeProbeResult describes one Prime+Probe run against the L1.
type PrimeProbeResult struct {
	Policy string
	// WayLatency[j] is the probe latency of the j-th primed line.
	WayLatency []float64
	// EvictionObserved reports that some primed line came back slow —
	// the transient eviction leak that restoration (Section 3.4)
	// removes and naive invalidation (Section 2.4.1) leaves behind.
	EvictionObserved bool
}

// primeLines returns nWays addresses that map to the same L1 set as target
// for the paper's 64KB/8-way L1 (128 sets).
func primeLines(target arch.Addr, l1Sets, nWays int) []arch.Addr {
	set := int(uint64(target.Line()) % uint64(l1Sets))
	base := arch.Addr(0x40_0000)
	out := make([]arch.Addr, 0, nWays)
	for j := 0; j < nWays; j++ {
		lineNo := uint64(set) + uint64(j+64)*uint64(l1Sets)
		out = append(out, base+arch.Addr(lineNo*arch.LineBytes))
	}
	return out
}

// buildPrimeProbeProgram assembles the Prime+Probe attack: the victim is
// the same Spectre-V1 gadget, but the attacker primes the L1 set that
// array2[secret*512] maps to and then times its own primed lines. A slow
// primed line reveals that the transient install evicted it.
func buildPrimeProbeProgram(secret int, lines []arch.Addr) *isa.Program {
	b := isa.NewBuilder("prime-probe-l1")
	b.InitData(addrSize, 16)
	for i := int64(0); i < 16; i++ {
		b.InitData(addrArray1+arch.Addr(i*8), uint64(i))
	}
	b.InitData(addrSecret, uint64(secret))

	// Keep the secret's line resident (victim data in active use). The
	// transient target array2[secret*512] itself stays cold: its fill is
	// in flight when the squash arrives, landing afterwards on the
	// non-secure baseline (and being dropped by CleanupSpec).
	b.Li(3, int64(addrSecret))
	b.Load(4, 3, 0)

	// Train the victim.
	b.Li(27, 5)
	b.Label("train")
	b.Add(1, 27, 0)
	b.Call("victim")
	b.AddI(27, 27, -1)
	b.Br(isa.CondNE, 27, 0, "train")

	// Prime: load each attacker line (this also evicts the transient
	// target's L1 copy, leaving it L2-resident).
	for i, a := range lines {
		b.Li(2, int64(a))
		b.Load(isa.Reg(4), 2, 0)
		_ = i
	}
	b.Fence()

	// Flush the bounds, attack.
	b.Li(3, int64(addrSize))
	b.CLFlush(3, 0)
	b.Fence()
	b.Li(1, MaliciousX)
	b.Call("victim")

	// Let a squash-surviving fill land before probing.
	b.Li(3, int64(addrSize+0x800))
	b.Load(4, 3, 0)
	b.Fence()

	// Probe each primed line; store latency to res[j]. The fence keeps
	// the timed load from issuing before the first timer read (lfence).
	for j, a := range lines {
		b.Li(6, int64(a))
		b.Fence()
		b.RdCycle(8)
		b.Load(9, 6, 0)
		b.RdCycle(11)
		b.Alu(isa.AluSub, 12, 11, 8)
		b.Li(14, int64(addrRes)+int64(j*8))
		b.Store(14, 0, 12)
	}
	b.Halt()

	// victim(x): as in the Spectre PoC.
	b.Label("victim")
	b.Li(21, int64(addrSize))
	b.Load(22, 21, 0)
	b.Br(isa.CondGEU, 1, 22, "vout")
	b.AluI(isa.AluShl, 23, 1, 3)
	b.Li(24, int64(addrArray1))
	b.Add(23, 23, 24)
	b.Load(23, 23, 0)
	b.AluI(isa.AluShl, 23, 23, 9)
	b.Li(24, int64(addrArray2))
	b.Add(23, 23, 24)
	b.Load(23, 23, 0)
	b.Label("vout")
	b.Ret()
	return b.Build()
}

// RunPrimeProbeL1 runs the L1 Prime+Probe attack under a policy.
func RunPrimeProbeL1(pol cpu.Policy, hcfg memsys.Config, secret int) PrimeProbeResult {
	l1Sets := hcfg.L1.SizeBytes / arch.LineBytes / hcfg.L1.Ways
	target := addrArray2 + arch.Addr(secret*ProbeStride)
	lines := primeLines(target, l1Sets, hcfg.L1.Ways)
	prog := buildPrimeProbeProgram(secret, lines)

	mcfg := cpu.DefaultConfig()
	mcfg.MaxCycles = 20_000_000
	h := memsys.New(hcfg)
	m := cpu.New(mcfg, prog, h, pol)
	m.Run(0)
	if !m.Halted() {
		panic("attack: prime+probe did not complete")
	}

	res := PrimeProbeResult{}
	if pol != nil {
		res.Policy = pol.Name()
	} else {
		res.Policy = "nonsecure"
	}
	var max float64
	for j := range lines {
		lat := float64(m.Memory().Read64(addrRes + arch.Addr(j*8)))
		res.WayLatency = append(res.WayLatency, lat)
		if lat > max {
			max = lat
		}
	}
	// If the transient install landed, the set holds 9 lines in 8 ways
	// and the probe sweep thrashes: every probe misses to the L2 (~9+
	// cycles against ~4-5 for an undisturbed L1 hit). Any probe above
	// the L1-hit ceiling therefore reveals the transient eviction.
	const l1HitCeiling = 7
	res.EvictionObserved = max > l1HitCeiling
	return res
}

// L2PrimeProbeObservation reports whether an attacker who primed the
// modulo-predicted L2 set of a victim line observes the victim's install
// evicting one of its primed lines. With CEASER indexing the install lands
// in an attacker-unpredictable set, breaking the attack (Section 3.2).
//
// This is a cache-level experiment (no core model needed): the attacker
// fills the set it *believes* the victim address maps to, the victim
// installs, and the attacker re-probes its lines.
func L2PrimeProbeObservation(randomized bool, seed uint64) (observed bool) {
	cfg := cache.Config{
		Name: "L2", SizeBytes: 1 << 20, Ways: 8, Repl: cache.ReplLRU, Seed: seed,
	}
	sets := cfg.SizeBytes / arch.LineBytes / cfg.Ways
	if randomized {
		cfg.Indexer = ceaser.New(sets, seed)
	}
	l2 := cache.New(cfg)
	rng := xrand.New(seed ^ 0xA77AC)

	victim := arch.LineAddr(0xBEEF000)
	predictedSet := int(uint64(victim) % uint64(sets)) // attacker's modulo model

	// Prime: fill the predicted set with attacker lines (search attacker
	// addresses that map there under the *actual* indexing only if the
	// attacker could know it — it can't, so prime by the modulo model).
	var primed []arch.LineAddr
	for len(primed) < cfg.Ways {
		cand := arch.LineAddr(uint64(predictedSet) + uint64(len(primed)+1000+rng.Intn(1<<16))*uint64(sets))
		if int(uint64(cand)%uint64(sets)) == predictedSet {
			primed = append(primed, cand)
		}
	}
	for _, p := range primed {
		l2.Install(p, arch.Exclusive, 0, 0)
	}
	// Victim install.
	l2.Install(victim, arch.Exclusive, 0, 1)
	// Probe: did any primed line get evicted?
	for _, p := range primed {
		if _, hit := l2.Probe(p); !hit {
			return true
		}
	}
	return false
}
