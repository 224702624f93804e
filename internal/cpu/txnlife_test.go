package cpu_test

import (
	"testing"

	"repro/internal/cpu"
	"repro/internal/memsys"
	"repro/internal/workload"
	"repro/sim"
)

// TestLoadsDropRecycledTxns runs a squash-heavy profile and checks the
// Txn lifetime contract after every cycle. A load that kept its
// transaction past completion would alias the recycled Txn of a later
// load, and a squash of the first load would then detach the second
// load's completion callback, leaving it waiting forever.
func TestLoadsDropRecycledTxns(t *testing.T) {
	prof, ok := workload.ProfileByName("gobmk")
	if !ok {
		t.Fatal("gobmk profile missing")
	}
	prog := prof.Build()
	for _, p := range []sim.Policy{sim.NonSecure, sim.CleanupSpec, sim.ValuePredict} {
		t.Run(string(p), func(t *testing.T) {
			pol, hcfg, err := sim.BuildPolicy(sim.Config{Policy: p})
			if err != nil {
				t.Fatal(err)
			}
			m := cpu.New(cpu.DefaultConfig(), prog, memsys.New(hcfg), pol)
			for i := 0; i < 40_000 && !m.Halted(); i++ {
				m.Step()
				if err := m.TxnLifetimeViolation(); err != nil {
					t.Fatal(err)
				}
			}
			if m.Stats.Squashes == 0 || m.Stats.Committed == 0 {
				t.Fatalf("no squash exercised: %+v", m.Stats)
			}
		})
	}
}
