package faultinject

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"testing"
)

// drain hits every site n times and records what fired, giving a
// comparable fingerprint of a schedule.
func drain(in *Injector, n int) []Event {
	for s := Site(0); s < numSites; s++ {
		if s == SiteSimStep {
			in.StallCycle()
			continue
		}
		for i := 0; i < n; i++ {
			in.Check(s)
		}
	}
	return in.Events()
}

func TestScheduleDeterminism(t *testing.T) {
	for seed := uint64(0); seed < 200; seed++ {
		a := drain(New(seed), 8)
		b := drain(New(seed), 8)
		if fmt.Sprint(a) != fmt.Sprint(b) {
			t.Fatalf("seed %d: schedules diverge: %v vs %v", seed, a, b)
		}
	}
}

// TestSchedulesPinned pins the schedules New derives for seeds 0–199 as
// one digest. Each site's plan is seeded on its own (seed ^ (site+1)*φ),
// so adding or removing a site must leave every other site's faults where
// they were; a change here moves faults in the campaign chaos sweep.
func TestSchedulesPinned(t *testing.T) {
	const want = "16c9f8fe1432b1fd237c23d472cbb3799c11b3c20d25f46babd797f1ef46114c"
	h := sha256.New()
	for seed := uint64(0); seed < 200; seed++ {
		fmt.Fprintln(h, seed, drain(New(seed), 8))
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("schedule digest over seeds 0-199 = %s, want %s", got, want)
	}
}

func TestSchedulesVaryAcrossSeeds(t *testing.T) {
	distinct := make(map[string]bool)
	fired := 0
	for seed := uint64(0); seed < 100; seed++ {
		ev := drain(New(seed), 8)
		distinct[fmt.Sprint(ev)] = true
		fired += len(ev)
	}
	if len(distinct) < 10 {
		t.Errorf("only %d distinct schedules across 100 seeds", len(distinct))
	}
	if fired == 0 {
		t.Error("no faults fired across 100 seeds")
	}
}

func TestNilInjectorDisabled(t *testing.T) {
	var in *Injector
	if k := in.Check(SiteCacheRead); k != KindNone {
		t.Errorf("nil Check = %v, want none", k)
	}
	if _, ok := in.StallCycle(); ok {
		t.Error("nil StallCycle fired")
	}
	if c := in.Child("x"); c != nil {
		t.Error("nil Child is not nil")
	}
	if ev := in.Events(); ev != nil {
		t.Errorf("nil Events = %v", ev)
	}
	data := []byte("abc")
	if got := in.Mutate(KindCorrupt, data); bytes.Equal(got, data) {
		t.Error("nil Mutate(corrupt) left payload intact") // nil still mutates: Mutate is pure
	}
}

func TestScheduleFiresOnExactHit(t *testing.T) {
	in := Plan("t").Schedule(SiteCacheWrite, KindTruncate, 3)
	want := []Kind{KindNone, KindNone, KindTruncate, KindNone}
	for i, w := range want {
		if got := in.Check(SiteCacheWrite); got != w {
			t.Fatalf("hit %d: got %v, want %v", i+1, got, w)
		}
	}
	ev := in.Events()
	if len(ev) != 1 || ev[0].Site != SiteCacheWrite || ev[0].Kind != KindTruncate || ev[0].Hit != 3 {
		t.Fatalf("events = %v", ev)
	}
}

func TestChildDeterministicAndIndependent(t *testing.T) {
	parent := New(7)
	a := drain(parent.Child("job-a"), 8)
	b := drain(parent.Child("job-a"), 8)
	// Child events accumulate on the parent log; the second drain must
	// append a repeat of the first (same label → same schedule replay).
	if len(b) != 2*len(a) || fmt.Sprint(b[:len(a)]) != fmt.Sprint(a) || fmt.Sprint(b[len(a):]) != fmt.Sprint(a) {
		t.Fatalf("same-label children diverge: %v vs %v", a, b)
	}
	// Children own their hit counters: draining them must not have
	// advanced the parent's, so draining the parent itself (same shared
	// plans, untouched counters) replays the same fingerprint once more.
	c := drain(parent, 8)
	if len(c) != 3*len(a) || fmt.Sprint(c[2*len(a):]) != fmt.Sprint(a) {
		t.Fatalf("child drains advanced the parent's counters: parent drain = %v, child fingerprint %v", c, a)
	}
	var nilIn *Injector
	if nilIn.Child("x") != nil {
		t.Error("nil parent produced a live child")
	}
}

func TestMutate(t *testing.T) {
	in := Plan("mut")
	data := []byte(`{"key":"abcd","result":{"ipc":1.25}}`)
	c1 := in.Mutate(KindCorrupt, data)
	c2 := in.Mutate(KindCorrupt, data)
	if !bytes.Equal(c1, c2) {
		t.Error("corrupt not deterministic")
	}
	if bytes.Equal(c1, data) {
		t.Error("corrupt left payload unchanged")
	}
	if len(c1) != len(data) {
		t.Errorf("corrupt changed length %d -> %d", len(data), len(c1))
	}
	tr := in.Mutate(KindTruncate, data)
	if len(tr) >= len(data) {
		t.Errorf("truncate kept %d of %d bytes", len(tr), len(data))
	}
	if !bytes.Equal(data, []byte(`{"key":"abcd","result":{"ipc":1.25}}`)) {
		t.Error("Mutate modified its input")
	}
	if got := in.Mutate(KindError, data); !bytes.Equal(got, data) {
		t.Error("non-payload kind mutated data")
	}
	if got := in.Mutate(KindCorrupt, nil); got != nil {
		t.Error("corrupting empty payload produced bytes")
	}
}

func TestStallCycleInRange(t *testing.T) {
	found := false
	for seed := uint64(0); seed < 100; seed++ {
		in := New(seed)
		at, ok := in.StallCycle()
		if !ok {
			continue
		}
		found = true
		if at < 200 || at >= 2700 {
			t.Errorf("seed %d: stall cycle %d out of range", seed, at)
		}
	}
	if !found {
		t.Error("no seed in 0..99 scheduled a stall")
	}
	in := Plan("s").Schedule(SiteSimStep, KindStall, 1234)
	if at, ok := in.StallCycle(); !ok || at != 1234 {
		t.Errorf("manual stall = %d, %v", at, ok)
	}
}

func TestConcurrentCheck(t *testing.T) {
	in := Plan("c").Schedule(SiteWorkerExec, KindPanic, 50)
	var wg sync.WaitGroup
	fired := make(chan Kind, 100)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if k := in.Check(SiteWorkerExec); k != KindNone {
					fired <- k
				}
			}
		}()
	}
	wg.Wait()
	close(fired)
	n := 0
	for k := range fired {
		if k != KindPanic {
			t.Errorf("fired %v", k)
		}
		n++
	}
	if n != 1 {
		t.Errorf("fault fired %d times across 100 concurrent hits, want exactly 1", n)
	}
}

func TestErrInjectedSentinel(t *testing.T) {
	wrapped := fmt.Errorf("campaign: cache put: %w", ErrInjected)
	if !errors.Is(wrapped, ErrInjected) {
		t.Error("wrapped sentinel not recognized")
	}
}

func TestStrings(t *testing.T) {
	for s := Site(0); s < numSites; s++ {
		if name := s.String(); name == "" || name == fmt.Sprintf("site(%d)", s) {
			t.Errorf("site %d bad name %q", s, name)
		}
	}
	kinds := []Kind{KindNone, KindError, KindCorrupt, KindTruncate, KindPanic, KindStall}
	seen := make(map[string]bool)
	for _, k := range kinds {
		if seen[k.String()] {
			t.Errorf("duplicate kind name %q", k.String())
		}
		seen[k.String()] = true
	}
	ev := Event{Site: SiteCacheRead, Kind: KindCorrupt, Hit: 2}
	if ev.String() != "cache-read/corrupt@2" {
		t.Errorf("event string %q", ev)
	}
}
