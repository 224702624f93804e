package main

import (
	"runtime"
	"time"

	"repro/internal/arch"
	"repro/internal/branch"
	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/memsys"
	"repro/internal/xrand"
)

// probeSink keeps probed results alive so the compiler cannot drop the
// calls being timed.
var probeSink any

// opMeter accumulates the host time and heap allocations of timed
// segments of a probe.
type opMeter struct {
	ns     int64
	allocs uint64
	ops    int
}

// measure runs f, which performs ops operations, and adds its time and
// allocations to the meter.
func (m *opMeter) measure(ops int, f func()) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t := time.Now()
	f()
	m.ns += int64(time.Since(t))
	runtime.ReadMemStats(&after)
	m.allocs += after.Mallocs - before.Mallocs
	m.ops += ops
}

func (m *opMeter) nsPerOp() float64     { return float64(m.ns) / float64(m.ops) }
func (m *opMeter) allocsPerOp() float64 { return float64(m.allocs) / float64(m.ops) }

// report stores a probe's ns/op (or µs/op for constructors) and allocs/op.
func (m *opMeter) report(out map[string]float64, name string, micro bool) {
	v := m.nsPerOp()
	if micro {
		v /= 1000
	}
	out[name] = v
	// "memsys.new_us" -> "memsys.new_allocs"
	out[name[:len(name)-2]+"allocs"] = m.allocsPerOp()
}

// layerProbes times public calls into the memory-system, cache,
// coherence, DRAM and branch layers on structures built from
// memsys.DefaultConfig / core.HierarchyConfig and warmed before timing.
// Addresses come from seed. The probes run only in the traced run.
func layerProbes(seed uint64) map[string]float64 {
	out := map[string]float64{}
	rng := xrand.New(seed)
	hcfg := memsys.DefaultConfig(1)
	hcfg.Seed = seed

	// Constructors: the CleanupSpec hierarchy (the largest) and its L2.
	csCfg := core.HierarchyConfig(hcfg)
	var mNew, cNew opMeter
	probeSink = memsys.New(csCfg)
	mNew.measure(40, func() {
		for i := 0; i < 40; i++ {
			probeSink = memsys.New(csCfg)
		}
	})
	mNew.report(out, "memsys.new_us", true)
	probeSink = cache.New(hcfg.L2)
	cNew.measure(40, func() {
		for i := 0; i < 40; i++ {
			probeSink = cache.New(hcfg.L2)
		}
	})
	cNew.report(out, "cache.new_us", true)

	// memsys.Load on L1 hits: a 256-line working set, 32 loads per
	// simulated cycle pair, Tick completing them.
	{
		h := memsys.New(hcfg)
		now := arch.Cycle(1)
		lines := make([]arch.LineAddr, 256)
		for i := range lines {
			lines[i] = arch.LineAddr(0x10000 + i)
		}
		var seq uint64
		round := func(r int) {
			for i := 0; i < 32; i++ {
				seq++
				h.Load(0, lines[(r*32+i)%len(lines)], now, seq, memsys.LoadOpts{}, nil)
			}
			now += 400
			h.Tick(now)
		}
		for r := 0; r < 64; r++ {
			round(r)
		}
		var m opMeter
		m.measure(32*4000, func() {
			for r := 0; r < 4000; r++ {
				round(r)
			}
		})
		m.report(out, "memsys.load_l1hit_ns", false)
	}

	// memsys.Load on misses to DRAM: never-seen lines, 32 in flight (half
	// the L1 MSHRs), Tick applying the fills. Warming fills the L2, so the
	// timed loads also evict.
	{
		h := memsys.New(hcfg)
		now := arch.Cycle(1)
		next := arch.LineAddr(1 << 24)
		var seq uint64
		round := func() {
			for i := 0; i < 32; i++ {
				seq++
				next += arch.LineAddr(1 + rng.Intn(4))
				h.Load(0, next, now, seq, memsys.LoadOpts{}, nil)
			}
			now += 400
			h.Tick(now)
		}
		for r := 0; r < 1200; r++ {
			round()
		}
		var m opMeter
		m.measure(32*1000, func() {
			for r := 0; r < 1000; r++ {
				round()
			}
		})
		m.report(out, "memsys.load_miss_ns", false)
	}

	// Cleanup of transiently installed lines: speculative loads install
	// 512 lines (untimed), then CleanupInvalidateL1 + CleanupInvalidateL2
	// remove each (timed), as CleanupSpec does after a squash.
	{
		h := memsys.New(csCfg)
		now := arch.Cycle(1)
		next := arch.LineAddr(1 << 24)
		var seq uint64
		var m opMeter
		batch := make([]arch.LineAddr, 0, 512)
		for r := 0; r < 24; r++ {
			batch = batch[:0]
			for len(batch) < cap(batch) {
				for i := 0; i < 32; i++ {
					seq++
					next += arch.LineAddr(1 + rng.Intn(4))
					h.Load(0, next, now, seq, memsys.LoadOpts{Spec: true}, nil)
					batch = append(batch, next)
				}
				now += 400
				h.Tick(now)
			}
			if r < 4 {
				for _, l := range batch {
					h.CleanupInvalidateL1(0, l)
					h.CleanupInvalidateL2(l)
				}
				continue
			}
			m.measure(len(batch), func() {
				for _, l := range batch {
					h.CleanupInvalidateL1(0, l)
					h.CleanupInvalidateL2(l)
				}
			})
		}
		m.report(out, "memsys.cleanup_ns", false)
	}

	// cache.Probe on a full L1: half the probed lines are resident.
	{
		c := cache.New(hcfg.L1)
		lines := make([]arch.LineAddr, 2048)
		for i := range lines {
			lines[i] = arch.LineAddr(rng.Uint64n(1 << 30))
		}
		for _, l := range lines[:1024] {
			c.Install(l, arch.Shared, 0, 1)
		}
		var hits int
		var m opMeter
		m.measure(1<<20, func() {
			for i := 0; i < 1<<20; i++ {
				if _, ok := c.Probe(lines[i&2047]); ok {
					hits++
				}
			}
		})
		probeSink = hits
		m.report(out, "cache.probe_ns", false)

		// cache.Install into full sets: every install evicts a victim.
		next := arch.LineAddr(1 << 32)
		var evicted int
		m = opMeter{}
		m.measure(1<<18, func() {
			for i := 0; i < 1<<18; i++ {
				next++
				if ev, _ := c.Install(next, arch.Shared, 0, arch.Cycle(i)); ev.Valid() {
					evicted++
				}
			}
		})
		probeSink = evicted
		m.report(out, "cache.install_evict_ns", false)
	}

	// coherence GetS on a warmed single-core directory (the simulations'
	// configuration) and GetS-Safe with half the lines owned remotely.
	{
		lines := make([]arch.LineAddr, 4096)
		for i := range lines {
			lines[i] = arch.LineAddr(rng.Uint64n(1 << 30))
		}
		d := coherence.NewDirectory(1)
		for _, l := range lines {
			d.GetS(0, l)
		}
		var excl int
		var m opMeter
		m.measure(1<<20, func() {
			for i := 0; i < 1<<20; i++ {
				if d.GetS(0, lines[i&4095]).State == arch.Exclusive {
					excl++
				}
			}
		})
		probeSink = excl
		m.report(out, "coherence.gets_ns", false)

		d2 := coherence.NewDirectory(2)
		for i, l := range lines {
			if i%2 == 0 {
				d2.GetX(1, l)
			}
		}
		var ok int
		m = opMeter{}
		m.measure(1<<20, func() {
			for i := 0; i < 1<<20; i++ {
				if _, granted := d2.GetSSafe(0, lines[i&4095]); granted {
					ok++
				}
			}
		})
		probeSink = ok
		m.report(out, "coherence.getssafe_ns", false)
	}

	// dram.AccessLatency over random lines (row hits and misses).
	{
		d := dram.New(dram.DefaultConfig())
		lines := make([]arch.LineAddr, 4096)
		for i := range lines {
			lines[i] = arch.LineAddr(rng.Uint64n(1 << 26))
		}
		var sum arch.Cycle
		var m opMeter
		m.measure(1<<20, func() {
			for i := 0; i < 1<<20; i++ {
				sum += d.AccessLatency(lines[i&4095], false)
			}
		})
		probeSink = sum
		m.report(out, "dram.access_ns", false)
	}

	// branch Predict + Update over 256 branch sites with seeded outcomes.
	{
		p := branch.New(branch.DefaultConfig())
		pcs := make([]arch.Addr, 256)
		taken := make([]bool, 4096)
		for i := range pcs {
			pcs[i] = arch.Addr(0x400000 + 4*rng.Intn(1<<16))
		}
		for i := range taken {
			taken[i] = rng.Bool(0.7)
		}
		for i := 0; i < 1<<16; i++ {
			p.Update(p.Predict(pcs[i&255]), taken[i&4095])
		}
		var m opMeter
		m.measure(1<<20, func() {
			for i := 0; i < 1<<20; i++ {
				p.Update(p.Predict(pcs[i&255]), taken[i&4095])
			}
		})
		m.report(out, "branch.predict_update_ns", false)
	}
	return out
}
