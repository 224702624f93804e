package memsys

import (
	"reflect"
	"testing"

	"repro/internal/arch"
	"repro/internal/cache"
)

func testConfig() Config {
	cfg := DefaultConfig(1)
	// Small L1 so eviction tests are easy: 4 sets x 2 ways.
	cfg.L1 = cache.Config{Name: "L1D", SizeBytes: 512, Ways: 2, Repl: cache.ReplLRU}
	cfg.L2 = cache.Config{Name: "L2", SizeBytes: 64 << 10, Ways: 16, Repl: cache.ReplLRU}
	return cfg
}

// run drives the hierarchy until the given txn completes, returning the
// completion cycle. It reads t only before ticking: a completed Txn is
// recycled, so its fields belong to the next Load.
func run(h *Hierarchy, t *Txn) arch.Cycle {
	from, done := t.Issued, t.DoneAt
	for c := from; c <= done+1; c++ {
		h.Tick(c)
	}
	return done
}

// completion is what a test's OnDone callback copies out of a finished
// transaction, which the hierarchy recycles once the callback returns.
type completion struct {
	called  bool
	level   Level
	dropped bool
	sefe    cache.SEFE
}

func (c *completion) onDone(t *Txn) {
	*c = completion{called: true, level: t.Level, dropped: t.Dropped, sefe: t.SEFE}
}

func TestLoadMissFillsBothLevels(t *testing.T) {
	h := New(testConfig())
	line := arch.LineAddr(0x100)
	var done completion
	txn, ok := h.Load(0, line, 0, 1, LoadOpts{Spec: true, Kind: KindRegular}, done.onDone)
	if !ok {
		t.Fatal("load rejected")
	}
	if txn.Level != LevelMem {
		t.Fatalf("level %v, want Mem", txn.Level)
	}
	wantLat := h.cfg.L1RT + h.L2RT() + h.cfg.DRAM.RTCycles
	if txn.DoneAt != wantLat {
		t.Fatalf("DoneAt %d, want %d", txn.DoneAt, wantLat)
	}
	run(h, txn)
	if !done.called {
		t.Fatal("OnDone not called")
	}
	if !done.sefe.L1Fill || !done.sefe.L2Fill {
		t.Fatalf("SEFE %+v: both fills expected", done.sefe)
	}
	if h.ProbeLevel(0, line) != LevelL1 {
		t.Fatal("line must be in L1 after fill")
	}
	if spec, by := h.L1(0).SpecInfo(line); !spec || by != 0 {
		t.Fatal("speculative install must be marked")
	}
	if h.L1MSHR(0).Len() != 0 {
		t.Fatal("MSHR entry must be released")
	}
}

func TestLoadHitLatency(t *testing.T) {
	h := New(testConfig())
	line := arch.LineAddr(0x100)
	txn, _ := h.Load(0, line, 0, 1, LoadOpts{}, nil)
	run(h, txn)
	txn2, _ := h.Load(0, line, 200, 2, LoadOpts{}, nil)
	if txn2.Level != LevelL1 || txn2.DoneAt != 200+h.cfg.L1RT {
		t.Fatalf("hit: level %v doneAt %d", txn2.Level, txn2.DoneAt)
	}
}

func TestL2HitAfterL1Eviction(t *testing.T) {
	h := New(testConfig())
	line := arch.LineAddr(0x100)
	txn, _ := h.Load(0, line, 0, 1, LoadOpts{}, nil)
	run(h, txn)
	h.L1(0).Invalidate(line)
	txn2, _ := h.Load(0, line, 500, 2, LoadOpts{}, nil)
	if txn2.Level != LevelL2 {
		t.Fatalf("level %v, want L2", txn2.Level)
	}
	if txn2.DoneAt != 500+h.cfg.L1RT+h.L2RT() {
		t.Fatalf("DoneAt %d", txn2.DoneAt)
	}
}

func TestEvictionRecordedInSEFE(t *testing.T) {
	h := New(testConfig())
	// L1 has 4 sets; lines 0, 4, 8 share set 0.
	mk := func(i int) arch.LineAddr { return arch.LineAddr(i * 4) }
	for i := 0; i < 2; i++ {
		txn, _ := h.Load(0, mk(i), arch.Cycle(i*300), uint64(i), LoadOpts{}, nil)
		run(h, txn)
	}
	var fill completion
	txn, _ := h.Load(0, mk(2), 1000, 9, LoadOpts{Spec: true}, fill.onDone)
	run(h, txn)
	if !fill.called || !fill.sefe.L1EvictValid {
		t.Fatalf("eviction not recorded: %+v", fill)
	}
	if fill.sefe.L1EvictAddr != mk(0) {
		t.Fatalf("victim %v, want %v (LRU)", fill.sefe.L1EvictAddr, mk(0))
	}
}

func TestInflightSquashDropsFill(t *testing.T) {
	h := New(testConfig())
	line := arch.LineAddr(0x200)
	var done completion
	txn, _ := h.Load(0, line, 0, 7, LoadOpts{Spec: true}, done.onDone)
	// Squash while in flight.
	if !h.SquashLoad(0, line, 7) {
		t.Fatal("squash must find the waiter")
	}
	if h.L1MSHR(0).Zombies() != 1 {
		t.Fatal("entry must be a zombie")
	}
	run(h, txn)
	if !done.dropped {
		t.Fatal("fill must be dropped")
	}
	if h.ProbeLevel(0, line) != LevelMem {
		t.Fatal("no cache level may hold the line after a dropped fill")
	}
	if h.Stats.DroppedFills != 1 {
		t.Fatalf("stats %+v", h.Stats)
	}
	if h.L1MSHR(0).Zombies() != 0 {
		t.Fatal("zombie must be released at data return")
	}
}

func TestSquashWithSurvivingMergedWaiterKeepsFill(t *testing.T) {
	h := New(testConfig())
	line := arch.LineAddr(0x200)
	var first completion
	t1, _ := h.Load(0, line, 0, 1, LoadOpts{Spec: true}, first.onDone)
	t2, _ := h.Load(0, line, 0, 2, LoadOpts{Spec: true}, nil)
	if t1.DoneAt != t2.DoneAt {
		t.Fatal("merged loads must complete together")
	}
	// Squash only the first; the second still wants the data.
	h.SquashLoad(0, line, 1)
	run(h, t1)
	if !first.called || first.dropped {
		t.Fatal("fill must survive for the merged waiter")
	}
	if h.ProbeLevel(0, line) != LevelL1 {
		t.Fatal("line must be installed")
	}
}

func TestMergedLoadsShareOneMemoryRequest(t *testing.T) {
	h := New(testConfig())
	line := arch.LineAddr(0x300)
	h.Load(0, line, 0, 1, LoadOpts{}, nil)
	before := h.DRAM().Stats.Reads
	h.Load(0, line, 1, 2, LoadOpts{}, nil)
	if h.DRAM().Stats.Reads != before {
		t.Fatal("merged load must not issue a second memory request")
	}
}

func TestInvisibleLoadChangesNothing(t *testing.T) {
	h := New(testConfig())
	line := arch.LineAddr(0x400)
	snapL1 := h.L1(0).SnapshotTags()
	snapL2 := h.L2().SnapshotTags()
	txn, _ := h.Load(0, line, 0, 1, LoadOpts{Spec: true, NoFill: true, Kind: KindInvisible}, nil)
	if txn.Level != LevelMem {
		t.Fatalf("level %v", txn.Level)
	}
	run(h, txn)
	if len(h.L1(0).SnapshotTags()) != len(snapL1) || len(h.L2().SnapshotTags()) != len(snapL2) {
		t.Fatal("invisible load changed cache contents")
	}
	if h.L1MSHR(0).Len() != 0 {
		t.Fatal("invisible load must not hold an MSHR")
	}
	if h.Traffic.Invisible == 0 {
		t.Fatal("invisible traffic must be counted")
	}
}

func TestStoreInstallsModified(t *testing.T) {
	h := New(testConfig())
	line := arch.LineAddr(0x500)
	h.Store(0, line, 0)
	if h.L1(0).State(line) != arch.Modified {
		t.Fatalf("state %v", h.L1(0).State(line))
	}
	if h.ProbeLevel(0, line) != LevelL1 {
		t.Fatal("store must install")
	}
	if h.Stats.Stores != 1 {
		t.Fatalf("stats %+v", h.Stats)
	}
}

func TestFlushRemovesEverywhere(t *testing.T) {
	h := New(testConfig())
	line := arch.LineAddr(0x600)
	txn, _ := h.Load(0, line, 0, 1, LoadOpts{}, nil)
	run(h, txn)
	h.Flush(0, line)
	if h.ProbeLevel(0, line) != LevelMem {
		t.Fatal("flush must remove the line from L1 and L2")
	}
}

func TestCleanupInvalidateAndRestore(t *testing.T) {
	h := New(testConfig())
	victim := arch.LineAddr(0)
	txn, _ := h.Load(0, victim, 0, 1, LoadOpts{}, nil)
	run(h, txn)
	// Fill the second way of set 0 too.
	txn, _ = h.Load(0, arch.LineAddr(4), 300, 2, LoadOpts{}, nil)
	run(h, txn)
	// Transient load evicts the victim.
	var fill completion
	txn, _ = h.Load(0, arch.LineAddr(8), 600, 3, LoadOpts{Spec: true}, fill.onDone)
	run(h, txn)
	if !fill.called || !fill.sefe.L1EvictValid {
		t.Fatal("setup: no eviction")
	}
	// Cleanup: invalidate the transient line, restore the victim.
	if !h.CleanupInvalidateL1(0, arch.LineAddr(8)) {
		t.Fatal("invalidate must find the transient line")
	}
	lat := h.RestoreL1(0, fill.sefe, 1000)
	if lat != h.L2RT() {
		t.Fatalf("restore latency %d, want L2 RT %d", lat, h.L2RT())
	}
	if _, ok := h.L1(0).Probe(fill.sefe.L1EvictAddr); !ok {
		t.Fatal("victim not restored")
	}
	if _, ok := h.L1(0).Probe(arch.LineAddr(8)); ok {
		t.Fatal("transient line still present")
	}
}

func TestRestoreIsNoOpWithoutEviction(t *testing.T) {
	h := New(testConfig())
	if lat := h.RestoreL1(0, cache.SEFE{}, 0); lat != 0 {
		t.Fatalf("latency %d", lat)
	}
}

func TestSpecWindowProtection(t *testing.T) {
	cfg := testConfig()
	cfg.NumCores = 2
	cfg.ProtectSpecWindow = true
	h := New(cfg)
	line := arch.LineAddr(0x700)
	// Core 0 installs speculatively... but into core 0's L1, so a probe
	// from core 1 misses L1 anyway and hits L2. Make core 1 share core
	// 0's L1? No: the window protection also guards the L2 copy. Probe
	// the L2 path.
	txn, _ := h.Load(0, line, 0, 1, LoadOpts{Spec: true}, nil)
	run(h, txn)
	if spec, _ := h.L2().SpecInfo(line); !spec {
		t.Fatal("L2 copy must be spec-marked")
	}
	// Core 1 accesses within the window: the L2 copy is speculative, so
	// its miss is serviced from memory-latency path. We validate via the
	// same-L1 dummy-miss mechanism using core 1's own L1 after a
	// cross-install: exercise dummyMissLatency directly.
	if lat := h.dummyMissLatency(line); lat != h.L2RT()+h.cfg.DRAM.RTCycles {
		t.Fatalf("dummy miss latency %d; spec L2 copy must cost a memory trip", lat)
	}
	// After the installer's load retires, marks are cleared and the
	// protected latency relaxes to an L2 hit.
	h.ClearSpecMark(0, line)
	if lat := h.dummyMissLatency(line); lat != h.L2RT() {
		t.Fatalf("post-retire dummy latency %d, want L2 RT", lat)
	}
}

func TestCrossCoreL1DummyMiss(t *testing.T) {
	// Two cores sharing an L1 partition is the SMT case; model it by
	// having core 1 probe a line spec-installed in ITS OWN L1 by
	// marking installer as core 0 (as an SMT sibling would see).
	cfg := testConfig()
	cfg.NumCores = 2
	cfg.ProtectSpecWindow = true
	h := New(cfg)
	line := arch.LineAddr(0x800)
	txn, _ := h.Load(1, line, 0, 1, LoadOpts{}, nil)
	run(h, txn)
	h.L1(1).MarkSpec(line, 0) // installed by sibling thread 0
	probe, _ := h.Load(1, line, 500, 2, LoadOpts{}, nil)
	if probe.DoneAt-500 <= h.cfg.L1RT {
		t.Fatal("window-protected hit must cost a dummy miss")
	}
	if h.Stats.DummyMisses != 1 {
		t.Fatalf("stats %+v", h.Stats)
	}
}

func TestSafeGetSDelaysOnRemoteOwner(t *testing.T) {
	cfg := testConfig()
	cfg.NumCores = 2
	h := New(cfg)
	line := arch.LineAddr(0x900)
	h.Store(1, line, 0) // core 1 owns M
	txn, ok := h.Load(0, line, 10, 5, LoadOpts{Spec: true, SafeGetS: true}, nil)
	if !ok || txn.Level != LevelDelayed {
		t.Fatalf("want LevelDelayed, got %+v ok=%v", txn, ok)
	}
	// No state change on the remote side.
	if h.L1(1).State(line) != arch.Modified {
		t.Fatal("GetS-Safe must not downgrade the remote owner")
	}
	// Retry without SafeGetS (correct path) succeeds and downgrades.
	txn2, _ := h.Load(0, line, 20, 6, LoadOpts{}, nil)
	run(h, txn2)
	if h.L1(1).State(line) != arch.Shared {
		t.Fatal("plain GetS must downgrade")
	}
}

func TestMSHRFullRejectsLoad(t *testing.T) {
	cfg := testConfig()
	cfg.L1MSHRs = 1
	h := New(cfg)
	h.Load(0, arch.LineAddr(0x10), 0, 1, LoadOpts{}, nil)
	if _, ok := h.Load(0, arch.LineAddr(0x20), 0, 2, LoadOpts{}, nil); ok {
		t.Fatal("second miss must be rejected with a full MSHR")
	}
	// Same line merges fine even when full.
	if _, ok := h.Load(0, arch.LineAddr(0x10), 0, 3, LoadOpts{}, nil); !ok {
		t.Fatal("merge must succeed despite full MSHR")
	}
}

func TestEpochBump(t *testing.T) {
	h := New(testConfig())
	if h.Epoch(0) != 0 {
		t.Fatal("initial epoch")
	}
	if e := h.BumpEpoch(0); e != 1 {
		t.Fatalf("epoch %d", e)
	}
}

func TestInclusionBackInvalidate(t *testing.T) {
	cfg := testConfig()
	// Tiny L2: 2 sets x 2 ways = 4 lines, so installs quickly evict.
	cfg.L2 = cache.Config{Name: "L2", SizeBytes: 256, Ways: 2, Repl: cache.ReplLRU}
	h := New(cfg)
	// Fill L2 set 0 (L2 lines 0 and 2 with 2 sets).
	lines := []arch.LineAddr{0, 2, 4}
	for i, l := range lines {
		txn, _ := h.Load(0, l, arch.Cycle(i*1000), uint64(i), LoadOpts{}, nil)
		run(h, txn)
	}
	// Line 0 was evicted from L2 by line 4's install; inclusion demands
	// it left the L1 too.
	if _, hit := h.L2().Probe(0); hit {
		t.Skip("LRU kept line 0; adjust lines")
	}
	if _, hit := h.L1(0).Probe(0); hit {
		t.Fatal("inclusion violated: L1 holds a line the L2 evicted")
	}
}

func TestTrafficAccounting(t *testing.T) {
	h := New(testConfig())
	txn, _ := h.Load(0, arch.LineAddr(0xA0), 0, 1, LoadOpts{Kind: KindRegular}, nil)
	run(h, txn)
	// L1 access + L1->L2 + L2->mem = 3 messages.
	if h.Traffic.Regular != 3 {
		t.Fatalf("regular traffic %d, want 3", h.Traffic.Regular)
	}
	h.ResetTraffic()
	if h.Traffic.Total() != 0 {
		t.Fatal("ResetTraffic failed")
	}
}

func TestIFetchHitAndMiss(t *testing.T) {
	h := New(DefaultConfig(1))
	// Cold fetch: miss to memory.
	ready := h.IFetch(0, 0, 100)
	if ready <= 100 {
		t.Fatal("cold instruction fetch must stall")
	}
	// Same line: hit, no stall.
	if got := h.IFetch(0, 1, 200); got != 200 {
		t.Fatalf("warm fetch stalled until %d", got)
	}
	// Next line: L2 hit after... the first fill went through installL2,
	// but only the first line; pc 8 is the next line, cold again.
	ready2 := h.IFetch(0, 8, 300)
	if ready2 <= 300 {
		t.Fatal("next-line fetch must miss")
	}
	if h.L1I(0) == nil || h.L1I(0).Stats.Misses != 2 {
		t.Fatalf("icache stats: %+v", h.L1I(0).Stats)
	}
}

func TestIFetchDisabled(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.L1I.SizeBytes = 0
	h := New(cfg)
	if got := h.IFetch(0, 0, 50); got != 50 {
		t.Fatal("disabled icache must never stall")
	}
	if h.L1I(0) != nil {
		t.Fatal("L1I must be nil when disabled")
	}
}

func TestPrewarmICache(t *testing.T) {
	h := New(DefaultConfig(1))
	h.PrewarmICache(0, 100) // 100 instructions = 13 lines
	for pc := 0; pc < 100; pc += 5 {
		if got := h.IFetch(0, arch.Addr(pc), 10); got != 10 {
			t.Fatalf("pc %d missed after prewarm", pc)
		}
	}
}

func TestTxnRecycledAfterCompletion(t *testing.T) {
	h := New(testConfig())
	var first completion
	a, _ := h.Load(0, arch.LineAddr(0x100), 0, 1, LoadOpts{Spec: true}, first.onDone)
	a.Ref = 7
	run(h, a)
	if !first.called || first.level != LevelMem {
		t.Fatalf("completion %+v", first)
	}
	// The completed transaction is the next Load's, with every field
	// reset: nothing of the first load (tag, callback, SEFE) survives.
	b, _ := h.Load(0, arch.LineAddr(0x100), 500, 2, LoadOpts{}, nil)
	if b != a {
		t.Fatal("a completed Txn must be reused by the next Load")
	}
	if b.Ref != 0 || b.OnDone != nil || b.Primary || b.Seq != 2 || b.Level != LevelL1 || b.SEFE.L1Fill {
		t.Fatalf("recycled Txn not reset: %+v", *b)
	}
}

func TestRejectedAndDelayedLoadsReturnTheirTxn(t *testing.T) {
	cfg := testConfig()
	cfg.NumCores = 2
	cfg.L1MSHRs = 1
	h := New(cfg)
	h.Store(1, arch.LineAddr(0x900), 0) // core 1 owns M
	d, _ := h.Load(0, arch.LineAddr(0x900), 10, 1, LoadOpts{Spec: true, SafeGetS: true}, nil)
	if d.Level != LevelDelayed {
		t.Fatalf("level %v, want Delayed", d.Level)
	}
	held, _ := h.Load(0, arch.LineAddr(0x10), 10, 2, LoadOpts{}, nil)
	if held != d {
		t.Fatal("a delayed reply is recycled at once: the next Load reuses it")
	}
	if _, ok := h.Load(0, arch.LineAddr(0x20), 10, 3, LoadOpts{}, nil); ok {
		t.Fatal("second miss must be rejected with a full MSHR")
	}
	// The rejected load's Txn went back to the pool; the pool did not
	// grow by one per rejection.
	if allocs := testing.AllocsPerRun(100, func() {
		h.Load(0, arch.LineAddr(0x20), 10, 4, LoadOpts{}, nil)
	}); allocs != 0 {
		t.Fatalf("%.1f allocations per rejected load", allocs)
	}
	if h.PendingLen() != 1 {
		t.Fatalf("pending %d, want only the held miss", h.PendingLen())
	}
}

// TestSteadyStateLoadsDoNotAllocate cycles loads over more lines than the
// L1 holds, so every load misses, fills, evicts and releases its MSHR and
// directory entries: once the pools are warm nothing is allocated.
func TestSteadyStateLoadsDoNotAllocate(t *testing.T) {
	h := New(testConfig())
	now := arch.Cycle(0)
	i := 0
	step := func() {
		txn, ok := h.Load(0, arch.LineAddr(i%64), now, uint64(i), LoadOpts{Spec: i%2 == 0}, nil)
		if !ok {
			t.Fatal("load rejected")
		}
		done := txn.DoneAt
		for ; now <= done; now++ {
			h.Tick(now)
		}
		i++
	}
	for j := 0; j < 1000; j++ {
		step()
	}
	if allocs := testing.AllocsPerRun(500, step); allocs != 0 {
		t.Fatalf("%.2f allocations per load in steady state", allocs)
	}
}

// cleanupSpecConfig mirrors core.HierarchyConfig (random-replacement L1,
// CEASER-indexed L2, spec-window protection), which this package cannot
// import without a cycle.
func cleanupSpecConfig() Config {
	cfg := DefaultConfig(1)
	cfg.L1.Repl = cache.ReplRandom
	cfg.RandomizeL2 = true
	cfg.ProtectSpecWindow = true
	return cfg
}

// TestPrewarmL2RangeMatchesPerLine checks the bulk prewarm against one
// PrewarmL2 call per line over a 16 MB range — eight times the 2 MB L2 —
// under the NonSecure and CleanupSpec hierarchies.
func TestPrewarmL2RangeMatchesPerLine(t *testing.T) {
	first := arch.Addr(0x2000_0000).Line()
	const n = (16 << 20) / arch.LineBytes
	for name, cfg := range map[string]Config{"nonsecure": DefaultConfig(1), "cleanupspec": cleanupSpecConfig()} {
		want, got := New(cfg), New(cfg)
		for i := 0; i < n; i++ {
			want.PrewarmL2(first + arch.LineAddr(i))
		}
		got.PrewarmL2Range(first, n)
		if !reflect.DeepEqual(got.Snapshot(), want.Snapshot()) {
			t.Errorf("%s: snapshots differ", name)
		}
		if got.L2().Stats != want.L2().Stats {
			t.Errorf("%s: L2 stats %+v, want %+v", name, got.L2().Stats, want.L2().Stats)
		}
		if got.Stats != want.Stats || got.Traffic != want.Traffic {
			t.Errorf("%s: hierarchy counters moved: %+v %+v", name, got.Stats, got.Traffic)
		}
		l2 := got.L2()
		for s := 0; s < l2.Sets(); s++ {
			for w := 0; w < l2.Ways(); w++ {
				if g, w2 := l2.LineAt(s, w), want.L2().LineAt(s, w); g != w2 {
					t.Fatalf("%s: L2 set %d way %d holds %+v, want %+v", name, s, w, g, w2)
				}
			}
		}
	}
}

func TestPrewarmL2RangeAfterLoadPanics(t *testing.T) {
	for _, tick := range []bool{false, true} {
		h := New(testConfig())
		txn, ok := h.Load(0, 0x100, 0, 1, LoadOpts{Kind: KindRegular}, nil)
		if !ok {
			t.Fatal("load rejected")
		}
		if tick {
			run(h, txn)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("PrewarmL2Range after a Load (completed=%v) did not panic", tick)
				}
			}()
			h.PrewarmL2Range(0x4000, 16)
		}()
	}
}

// BenchmarkPrewarmL2 prewarms a 16 MB range (262,144 lines, eight times
// the L2's capacity) into a fresh 2 MB L2, as sim.RunWorkload does for the
// largest footprints, under the modulo-indexed LRU L2 and the CEASER-indexed
// one: in one PrewarmL2Range call ("range") and in one PrewarmL2 call per
// line ("per-line").
func BenchmarkPrewarmL2(b *testing.B) {
	first := arch.Addr(0x2000_0000).Line()
	const n = (16 << 20) / arch.LineBytes
	perLine := func(h *Hierarchy) {
		for i := 0; i < n; i++ {
			h.PrewarmL2(first + arch.LineAddr(i))
		}
	}
	for _, l2 := range []struct {
		name string
		cfg  Config
	}{{"lru-mod", DefaultConfig(1)}, {"ceaser", cleanupSpecConfig()}} {
		for _, mode := range []struct {
			name    string
			prewarm func(*Hierarchy)
		}{{"range", func(h *Hierarchy) { h.PrewarmL2Range(first, n) }}, {"per-line", perLine}} {
			b.Run(l2.name+"/"+mode.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					h := New(l2.cfg)
					b.StartTimer()
					mode.prewarm(h)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/line")
			})
		}
	}
}
