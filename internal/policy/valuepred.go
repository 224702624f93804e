package policy

import (
	"repro/internal/arch"
	"repro/internal/cpu"
	"repro/internal/memsys"
)

// ValuePredict is the "delay and value-predict" mitigation of Sakalis et
// al. (ISCA 2019), the related-work baseline the paper cites at ~10%
// slowdown (Section 7.3.2): speculative L1 misses never access the cache;
// dependents continue on a last-value prediction, the real access runs once
// the load is unsquashable, and a wrong prediction squashes and re-executes
// the dependents. Speculative L1 hits proceed normally (the delay-on-miss
// filter).
type ValuePredict struct {
	table map[arch.Addr]uint64 // last committed value per load PC

	// validations records the in-flight validation accesses; each
	// access's Txn.Ref indexes it, so one callback (onValidated, bound in
	// NewValuePredict) serves them all. Completed records are recycled
	// through the free list headed by freeRef (-1: empty).
	validations []validation
	freeRef     int32
	onValidated func(*memsys.Txn)

	Stats ValuePredStats
}

// validation is one in-flight validation access: the value-predicted load
// it checks, identified by sequence number in case it is squashed first.
type validation struct {
	m    *cpu.Machine
	e    *cpu.LQEntry
	seq  uint64
	next int32 // free-list link
}

// ValuePredStats counts prediction activity.
type ValuePredStats struct {
	Predictions uint64
	Validations uint64
	Correct     uint64
	Mispredicts uint64
}

// NewValuePredict creates the policy with an empty last-value table.
func NewValuePredict() *ValuePredict {
	v := &ValuePredict{table: make(map[arch.Addr]uint64), freeRef: -1}
	v.onValidated = v.validated
	return v
}

// Name implements cpu.Policy.
func (v *ValuePredict) Name() string { return "value-predict" }

// Mode implements cpu.Policy.
func (v *ValuePredict) Mode(m *cpu.Machine, e *cpu.LQEntry, spec bool) cpu.LoadMode {
	if spec {
		return cpu.LoadValuePredict
	}
	return cpu.LoadNormal
}

// PredictValue implements cpu.ValuePredictor: last value seen at this PC.
func (v *ValuePredict) PredictValue(m *cpu.Machine, e *cpu.LQEntry) uint64 {
	v.Stats.Predictions++
	return v.table[e.PC]
}

// DeferWakeupUntilVisible implements cpu.Policy.
func (v *ValuePredict) DeferWakeupUntilVisible() bool { return false }

// OnLoadUnsquashable implements cpu.Policy.
func (v *ValuePredict) OnLoadUnsquashable(m *cpu.Machine, e *cpu.LQEntry) {}

// OnLoadNearCommit implements cpu.Policy: launch the real (validation)
// access for a value-predicted load as it nears retirement.
func (v *ValuePredict) OnLoadNearCommit(m *cpu.Machine, e *cpu.LQEntry) {
	v.launchValidation(m, e)
}

func (v *ValuePredict) launchValidation(m *cpu.Machine, e *cpu.LQEntry) {
	if !e.ValuePredicted || e.UpdateLaunched {
		return
	}
	e.UpdateLaunched = true
	v.Stats.Validations++
	// A distinct waiter tag (thread field 63) keeps validation requests
	// from colliding with the machine's own waiter ids in the MSHR.
	waiter := e.Seq<<6 | 63
	txn, ok := m.Hierarchy().Load(m.CoreID(), e.Line, m.Now(), waiter,
		memsys.LoadOpts{Owner: m.ThreadID()}, v.onValidated)
	if !ok {
		// MSHR full: retry from CommitWait.
		e.UpdateLaunched = false
		v.Stats.Validations--
		return
	}
	ref := v.freeRef
	if ref < 0 {
		ref = int32(len(v.validations))
		//simlint:allow hotalloc -- grows the policy-owned record table to the peak number of validations in flight (at most the LQ size), then recycles it
		v.validations = append(v.validations, validation{})
	} else {
		v.freeRef = v.validations[ref].next
	}
	v.validations[ref] = validation{m: m, e: e, seq: e.Seq}
	txn.Ref = ref
	e.UpdateDoneAt = txn.DoneAt
}

// validated completes a validation access: a correct prediction clears
// the load's flag, a wrong one squashes and repairs its dependents.
func (v *ValuePredict) validated(t *memsys.Txn) {
	r := v.validations[t.Ref]
	v.validations[t.Ref] = validation{next: v.freeRef}
	v.freeRef = t.Ref
	m, e := r.m, r.e
	if !e.ValuePredicted || e.Seq != r.seq {
		return // the load itself was squashed meanwhile
	}
	actual := m.Memory().Read64(e.Addr)
	if actual == e.Value {
		v.Stats.Correct++
		e.ValuePredicted = false
		return
	}
	v.Stats.Mispredicts++
	m.RepairValueMisprediction(e, actual)
}

// CommitWait implements cpu.Policy: a value-predicted load may not retire
// until its validation completes.
func (v *ValuePredict) CommitWait(m *cpu.Machine, e *cpu.LQEntry) arch.Cycle {
	if e.ValuePredicted && !e.UpdateLaunched {
		v.launchValidation(m, e)
		if !e.UpdateLaunched {
			return 1 // MSHR full; retry next cycle
		}
	}
	if e.UpdateLaunched && e.UpdateDoneAt > m.Now() {
		return e.UpdateDoneAt - m.Now()
	}
	return 0
}

// OnLoadCommitted implements cpu.Policy: train the last-value table.
func (v *ValuePredict) OnLoadCommitted(m *cpu.Machine, e *cpu.LQEntry) {
	v.table[e.PC] = e.Value
}

// OnSquash implements cpu.Policy: delayed loads never touched the cache.
func (v *ValuePredict) OnSquash(*cpu.Machine, []cpu.SquashedLoad) cpu.SquashCost {
	return cpu.SquashCost{}
}

// DropSquashedInflight implements cpu.Policy.
func (v *ValuePredict) DropSquashedInflight() bool { return false }
