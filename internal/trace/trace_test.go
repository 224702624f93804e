package trace

import (
	"strings"
	"testing"

	"repro/internal/arch"
)

func TestRingOrderAndWrap(t *testing.T) {
	r := NewRing(4)
	for i := 0; i < 10; i++ {
		r.Emit(Event{Cycle: arch.Cycle(i), Kind: KindCommit, Seq: uint64(i)})
	}
	if r.Total() != 10 {
		t.Fatalf("total %d", r.Total())
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d", len(evs))
	}
	for i, e := range evs {
		if e.Seq != uint64(6+i) {
			t.Fatalf("event %d has seq %d, want %d (chronological tail)", i, e.Seq, 6+i)
		}
	}
}

func TestRingBelowCapacity(t *testing.T) {
	r := NewRing(8)
	r.Emit(Event{Seq: 1})
	r.Emit(Event{Seq: 2})
	evs := r.Events()
	if len(evs) != 2 || evs[0].Seq != 1 || evs[1].Seq != 2 {
		t.Fatalf("events %v", evs)
	}
}

func TestWriteText(t *testing.T) {
	evs := []Event{
		{Cycle: 7, Kind: KindLoadIssue, Seq: 9, PC: 3, Line: 5, Arg: 2},
		{Cycle: 8, Kind: KindSquash, Seq: 10},
	}
	var b strings.Builder
	if err := WriteText(&b, evs); err != nil {
		t.Fatal(err)
	}
	want := evs[0].String() + "\n" + evs[1].String() + "\n"
	if b.String() != want {
		t.Fatalf("dump = %q, want %q", b.String(), want)
	}
	if !strings.Contains(b.String(), "load-issue") || !strings.Contains(b.String(), "seq=9") {
		t.Fatalf("dump: %q", b.String())
	}
}

func TestKindStrings(t *testing.T) {
	if KindSquash.String() != "squash" || KindHalt.String() != "halt" {
		t.Fatal("kind names wrong")
	}
	if Kind(200).String() == "" {
		t.Fatal("unknown kind must format")
	}
}

func TestZeroCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRing(0)
}
