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

func TestFilter(t *testing.T) {
	r := NewRing(8)
	r.Emit(Event{Kind: KindSquash, Seq: 1})
	r.Emit(Event{Kind: KindCommit, Seq: 2})
	r.Emit(Event{Kind: KindSquash, Seq: 3})
	sq := r.Filter(KindSquash)
	if len(sq) != 2 || sq[0].Seq != 1 || sq[1].Seq != 3 {
		t.Fatalf("filtered %v", sq)
	}
}

func TestFilterWrapped(t *testing.T) {
	r := NewRing(4)
	for i := 0; i < 10; i++ {
		k := KindCommit
		if i%2 == 0 {
			k = KindSquash
		}
		r.Emit(Event{Kind: k, Seq: uint64(i)})
	}
	// Retained: seqs 6..9; squashes among them: 6, 8 — chronological.
	sq := r.Filter(KindSquash)
	if len(sq) != 2 || sq[0].Seq != 6 || sq[1].Seq != 8 {
		t.Fatalf("wrapped filter: %v", sq)
	}
	if cap(sq) != len(sq) {
		t.Fatalf("filter over-allocated: cap=%d len=%d", cap(sq), len(sq))
	}
	if r.Filter(KindHalt) != nil {
		t.Fatal("filter with no matches must return nil")
	}
}

func TestWriteTo(t *testing.T) {
	r := NewRing(4)
	r.Emit(Event{Cycle: 7, Kind: KindLoadIssue, Seq: 9, PC: 3, Line: 5, Arg: 2})
	var b strings.Builder
	if _, err := r.WriteTo(&b); err != nil {
		t.Fatal(err)
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
