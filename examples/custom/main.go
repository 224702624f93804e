// Custom example: build a program with the public program-builder API, run
// it under CleanupSpec with tracing attached, and read back registers,
// stats, and the event trace — the workflow for experimenting with your own
// transient-execution gadgets.
package main

import (
	"fmt"
	"log"

	"repro/sim"
)

func main() {
	// A hand-written transient gadget: the branch condition comes from
	// cold memory (slow), so the wrong path runs for ~100 cycles and
	// speculatively loads a "secret-dependent" line before the squash.
	b := sim.NewProgram("my-gadget")
	b.InitData(0x1000, 1) // branch condition (actually taken)
	b.Li(1, 0x1000)
	b.Load(2, 1, 0)                   // slow: cold miss
	b.Br(sim.CondNE, 2, 0, "correct") // taken once the slow load returns 1
	b.Li(4, 0x7000)                   // wrong path
	b.Load(5, 4, 0)                   // transient access
	b.Halt()
	b.Label("correct")
	b.Li(6, 42)
	b.Halt()
	prog := b.Build()

	ring := sim.NewTraceRing(64)
	res, err := sim.RunProgram("my-gadget", prog, sim.Config{
		Policy:   sim.CleanupSpec,
		NoWarmup: true,
		Trace:    ring,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("committed %d instructions in %d cycles under %s\n",
		res.Instructions, res.Cycles, res.Policy)
	fmt.Printf("squashes: %.0f, squashed loads dropped in flight: %.0f%%\n\n",
		res.SquashPKI*float64(res.Instructions)/1000, res.InflightFrac*100)
	fmt.Println("event trace:")
	for _, e := range ring.Events() {
		fmt.Println(e)
	}
}
