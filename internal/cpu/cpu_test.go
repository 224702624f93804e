package cpu

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/arch"
	"repro/internal/isa"
	"repro/internal/memsys"
	"repro/internal/trace"
)

func newMachine(t *testing.T, prog *isa.Program, pol Policy) *Machine {
	t.Helper()
	cfg := DefaultConfig()
	cfg.MaxCycles = 2_000_000
	h := memsys.New(memsys.DefaultConfig(1))
	return New(cfg, prog, h, pol)
}

func TestALUChain(t *testing.T) {
	b := isa.NewBuilder("alu")
	b.Li(1, 5)
	b.Li(2, 7)
	b.Add(3, 1, 2)
	b.AluI(isa.AluMul, 4, 3, 3) // r4 = 12*3 = 36
	b.Alu(isa.AluSub, 5, 4, 1)  // r5 = 31
	b.Halt()
	m := newMachine(t, b.Build(), nil)
	m.Run(0)
	if !m.Halted() {
		t.Fatal("did not halt")
	}
	if got := m.Reg(5); got != 31 {
		t.Fatalf("r5 = %d, want 31", got)
	}
	if m.Stats.Committed != 6 {
		t.Fatalf("committed %d, want 6", m.Stats.Committed)
	}
}

func TestRegisterZeroIsHardwired(t *testing.T) {
	b := isa.NewBuilder("r0")
	b.Li(0, 99) // write discarded
	b.AddI(1, 0, 3)
	b.Halt()
	m := newMachine(t, b.Build(), nil)
	m.Run(0)
	if m.Reg(0) != 0 || m.Reg(1) != 3 {
		t.Fatalf("r0=%d r1=%d", m.Reg(0), m.Reg(1))
	}
}

func TestLoopCommitsExactCount(t *testing.T) {
	b := isa.NewBuilder("loop")
	b.Li(1, 10)
	b.Label("loop")
	b.AddI(1, 1, -1)
	b.Br(isa.CondNE, 1, 0, "loop")
	b.Halt()
	m := newMachine(t, b.Build(), nil)
	m.Run(0)
	// 1 li + 10*(add+br) + halt = 22.
	if m.Stats.Committed != 22 {
		t.Fatalf("committed %d, want 22", m.Stats.Committed)
	}
	if m.Reg(1) != 0 {
		t.Fatalf("r1 = %d", m.Reg(1))
	}
}

func TestStoreLoadThroughMemory(t *testing.T) {
	b := isa.NewBuilder("mem")
	b.Li(1, 0x1000)
	b.Li(2, 42)
	b.Store(1, 0, 2)
	b.Fence()
	b.Load(3, 1, 0)
	b.Halt()
	m := newMachine(t, b.Build(), nil)
	m.Run(0)
	if m.Reg(3) != 42 {
		t.Fatalf("r3 = %d, want 42", m.Reg(3))
	}
	if m.Memory().Read64(0x1000) != 42 {
		t.Fatal("store did not reach memory")
	}
}

func TestStoreToLoadForwarding(t *testing.T) {
	b := isa.NewBuilder("fwd")
	b.Li(1, 0x2000)
	b.Li(2, 7)
	b.Store(1, 0, 2)
	b.Load(3, 1, 0) // must forward 7 from the SQ
	b.Halt()
	m := newMachine(t, b.Build(), nil)
	m.Run(0)
	if m.Reg(3) != 7 {
		t.Fatalf("r3 = %d, want 7", m.Reg(3))
	}
}

func TestLoadWaitsForUnknownStoreAddress(t *testing.T) {
	// The store's address depends on a slow load; the younger load to the
	// same address must wait and then see the stored value.
	b := isa.NewBuilder("disamb")
	b.InitData(0x1000, 0x3000) // pointer
	b.Li(1, 0x1000)
	b.Load(2, 1, 0) // r2 = 0x3000 (slow: cold miss)
	b.Li(3, 55)
	b.Store(2, 0, 3) // mem[0x3000] = 55, address late
	b.Li(4, 0x3000)
	b.Load(5, 4, 0) // must not bypass the store
	b.Halt()
	m := newMachine(t, b.Build(), nil)
	m.Run(0)
	if m.Reg(5) != 55 {
		t.Fatalf("r5 = %d, want 55", m.Reg(5))
	}
}

func TestCallRet(t *testing.T) {
	b := isa.NewBuilder("call")
	b.Li(1, 1)
	b.Call("fn")
	b.AddI(2, 2, 100) // after return
	b.Halt()
	b.Label("fn")
	b.AddI(2, 1, 10) // r2 = 11
	b.Ret()
	m := newMachine(t, b.Build(), nil)
	m.Run(0)
	if m.Reg(2) != 111 {
		t.Fatalf("r2 = %d, want 111", m.Reg(2))
	}
}

func TestRdCycleOrdersAroundLoads(t *testing.T) {
	// Timing a cold load vs a hot load must show a big difference: this
	// is the primitive the Spectre PoC's probe phase uses.
	b := isa.NewBuilder("timing")
	b.Li(1, 0x8000)
	b.RdCycle(10)
	b.Load(2, 1, 0) // cold: memory latency
	b.RdCycle(11)
	b.Load(3, 1, 0) // hot: L1 hit
	b.RdCycle(12)
	b.Halt()
	m := newMachine(t, b.Build(), nil)
	m.Run(0)
	cold := m.Reg(11) - m.Reg(10)
	hot := m.Reg(12) - m.Reg(11)
	if cold < 100 {
		t.Fatalf("cold load took %d cycles; want >= memory latency", cold)
	}
	if hot >= cold/2 {
		t.Fatalf("hot load (%d) not clearly faster than cold (%d)", hot, cold)
	}
}

// mispredictProgram builds the canonical squash scenario: a branch whose
// condition depends on a slow load is actually taken but predicted
// not-taken (cold counters), so the fall-through — a wrong-path load — is
// fetched and executed transiently.
//
//	load r2, [0x1000]        ; = 1, cold miss (slow)
//	br NE r2, r0 -> correct  ; actual: taken; initial prediction: not taken
//	load r4, [0x3000]        ; wrong-path load
//	halt
//	correct: load r3, [0x2000] ; correct path
//	halt
func mispredictProgram() *isa.Program {
	b := isa.NewBuilder("mispredict")
	b.InitData(0x1000, 1)
	b.Li(1, 0x1000)
	b.Load(2, 1, 0)
	b.Br(isa.CondNE, 2, 0, "correct")
	b.Li(6, 0x3000)
	b.Load(4, 6, 0)
	b.Halt()
	b.Label("correct")
	b.Li(5, 0x2000)
	b.Load(3, 5, 0)
	b.Halt()
	return b.Build()
}

func TestMispredictSquashesWrongPath(t *testing.T) {
	m := newMachine(t, mispredictProgram(), nil)
	m.Run(0)
	if m.Stats.Squashes != 1 {
		t.Fatalf("squashes = %d, want 1", m.Stats.Squashes)
	}
	if m.Stats.Mispredicts != 1 {
		t.Fatalf("mispredicts = %d", m.Stats.Mispredicts)
	}
	// The wrong-path result must never become architectural.
	if m.Reg(4) != 0 {
		t.Fatalf("wrong-path load committed: r4 = %d", m.Reg(4))
	}
	// Correct path ran.
	if m.Stats.LoadsCommitted != 2 {
		t.Fatalf("loads committed %d, want 2", m.Stats.LoadsCommitted)
	}
	if m.Stats.SquashedLoads == 0 {
		t.Fatal("the wrong-path load must be counted as squashed")
	}
}

func TestNonSecureRetainsWrongPathInstall(t *testing.T) {
	// Under the non-secure baseline, the wrong-path line stays in the
	// cache after the squash — the vulnerability CleanupSpec removes.
	m := newMachine(t, mispredictProgram(), NonSecure{})
	m.Run(0)
	wrongLine := arch.Addr(0x3000).Line()
	if m.Hierarchy().ProbeLevel(0, wrongLine) == memsys.LevelMem {
		t.Fatal("non-secure baseline should retain the wrong-path install")
	}
}

func TestSquashRestoresRAT(t *testing.T) {
	// After the squash, r4's rename must roll back so the correct path
	// sees the committed value.
	b := isa.NewBuilder("rat")
	b.InitData(0x1000, 1)
	b.Li(4, 77) // committed value of r4
	b.Li(1, 0x1000)
	b.Load(2, 1, 0)
	b.Br(isa.CondNE, 2, 0, "correct") // taken; predicted not-taken
	b.Li(4, 999)                      // wrong-path overwrite, must not leak into r5
	b.Nop()
	b.Nop()
	b.Halt()
	b.Label("correct")
	b.AddI(5, 4, 1) // r5 = 78 on the correct path
	b.Halt()
	m := newMachine(t, b.Build(), nil)
	m.Run(0)
	if m.Stats.Squashes == 0 {
		t.Fatal("scenario must squash")
	}
	if m.Reg(5) != 78 {
		t.Fatalf("r5 = %d, want 78 (RAT not restored?)", m.Reg(5))
	}
}

func TestBranchPredictorLearnsLoop(t *testing.T) {
	b := isa.NewBuilder("learn")
	b.Li(1, 200)
	b.Label("loop")
	b.AddI(1, 1, -1)
	b.Br(isa.CondNE, 1, 0, "loop")
	b.Halt()
	m := newMachine(t, b.Build(), nil)
	m.Run(0)
	// A 200-iteration loop must mispredict only during local-history
	// warmup (one miss per fresh history pattern, ~11 bits) plus exits.
	if m.Stats.Mispredicts > 20 {
		t.Fatalf("%d mispredicts on a simple loop", m.Stats.Mispredicts)
	}
}

func TestFenceBlocksYoungerLoads(t *testing.T) {
	b := isa.NewBuilder("fence")
	b.Li(1, 0x4000)
	b.RdCycle(10)
	b.Fence()
	b.Load(2, 1, 0)
	b.RdCycle(11)
	b.Halt()
	m := newMachine(t, b.Build(), nil)
	m.Run(0)
	if m.Reg(11) <= m.Reg(10) {
		t.Fatal("rdcycle ordering broken")
	}
	if !m.Halted() {
		t.Fatal("fence deadlocked the pipeline")
	}
}

func TestCLFlushEvictsLine(t *testing.T) {
	b := isa.NewBuilder("clflush")
	b.Li(1, 0x5000)
	b.Load(2, 1, 0) // install
	b.CLFlush(1, 0)
	b.Halt()
	m := newMachine(t, b.Build(), nil)
	m.Run(0)
	if m.Hierarchy().ProbeLevel(0, arch.Addr(0x5000).Line()) != memsys.LevelMem {
		t.Fatal("clflush did not evict the line")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() Stats {
		m := newMachine(t, mispredictProgram(), nil)
		return m.Run(0)
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("non-deterministic runs:\n%+v\n%+v", a, b)
	}
}

func TestTracerCapturesSquashStory(t *testing.T) {
	m := newMachine(t, mispredictProgram(), nil)
	ring := trace.NewRing(256)
	m.AttachTracer(ring)
	m.Run(0)
	evs := ring.Events()
	count := map[trace.Kind]int{}
	for _, e := range evs {
		count[e.Kind]++
	}
	if count[trace.KindSquash] != 1 {
		t.Fatalf("squash events: %d", count[trace.KindSquash])
	}
	if count[trace.KindFetchRedirect] != 1 {
		t.Fatal("missing fetch-redirect event")
	}
	if count[trace.KindLoadIssue] == 0 || count[trace.KindLoadComplete] == 0 {
		t.Fatal("missing load events")
	}
	if count[trace.KindHalt] != 1 {
		t.Fatal("missing halt event")
	}
	// Events must be in non-decreasing cycle order.
	for i := 1; i < len(evs); i++ {
		if evs[i].Cycle < evs[i-1].Cycle {
			t.Fatalf("trace out of order at %d: %v then %v", i, evs[i-1], evs[i])
		}
	}
}

func TestTracerDetachedCostsNothingVisible(t *testing.T) {
	// Just exercise the nil-tracer path end to end.
	m := newMachine(t, mispredictProgram(), nil)
	m.AttachTracer(nil)
	m.Run(0)
	if !m.Halted() {
		t.Fatal("did not halt")
	}
}

// TestDispatchResetsEveryROBField pins the field lists of the two slot
// types the front end recycles in place: fetch fills a fetchSlot and
// dispatch a ROBEntry by assigning each field rather than through a struct
// literal. A field added to either must also be reset there (then listed
// here), or a stale value leaks from the slot's last occupant.
func TestDispatchResetsEveryROBField(t *testing.T) {
	for _, c := range []struct {
		typ   any
		where string
		want  []string
	}{
		{ROBEntry{}, "dispatch", []string{
			"valid", "seq", "pc", "inst", "state",
			"src1Ready", "src2Ready", "src1Val", "src2Val", "pendSrcs", "result",
			"hasRd", "oldRat", "oldRatSeq", "consumers",
			"isCtrl", "predTaken", "predTarget", "predState", "snapshot", "hasPred",
			"lqIdx", "sqIdx", "doneAt", "wakeDeferred", "mispredicted",
		}},
		{fetchSlot{}, "fetch", []string{
			"pc", "inst", "predTaken", "predNext", "predState", "snapshot", "hasPred",
		}},
	} {
		rt := reflect.TypeOf(c.typ)
		var got []string
		for i := 0; i < rt.NumField(); i++ {
			got = append(got, rt.Field(i).Name)
		}
		if !slices.Equal(got, c.want) {
			t.Errorf("%s fields changed:\n got %v\nwant %v\nreset the new field in %s, then update this list", rt.Name(), got, c.want, c.where)
		}
	}
}
