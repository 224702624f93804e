// Command attack-lab demonstrates the cache side channels the paper closes,
// beyond the Spectre PoC (see examples/spectre):
//
//	attack-lab -demo primeprobe   # L1 Prime+Probe vs CleanupSpec's restore
//	attack-lab -demo l2random     # L2 set-prediction vs CEASER randomization
//	attack-lab -demo replstate    # replacement-state channel vs random repl
//
// With -json the lab emits one machine-readable verdict per (demo, policy)
// pair instead of prose, so harnesses can assert on leak outcomes:
//
//	attack-lab -json | jq '.[] | select(.leak)'
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/attack"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/memsys"
)

// Verdict is one machine-readable outcome: did the named configuration
// leak through this demo's channel?
type Verdict struct {
	Demo   string `json:"demo"`
	Policy string `json:"policy"`
	Leak   bool   `json:"leak"`
	Detail string `json:"detail"`
}

func main() {
	demo := flag.String("demo", "all", "primeprobe, l2random, replstate, or all")
	asJSON := flag.Bool("json", false, "emit machine-readable per-policy verdicts")
	flag.Parse()

	text := !*asJSON
	var verdicts []Verdict
	switch *demo {
	case "primeprobe":
		verdicts = primeProbe(text)
	case "l2random":
		verdicts = l2Random(text)
	case "replstate":
		verdicts = replState(text)
	case "all":
		verdicts = append(verdicts, primeProbe(text)...)
		verdicts = append(verdicts, l2Random(text)...)
		verdicts = append(verdicts, replState(text)...)
	default:
		fmt.Fprintln(os.Stderr, "attack-lab: unknown demo", *demo)
		os.Exit(2)
	}

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", " ")
		if err := enc.Encode(verdicts); err != nil {
			fmt.Fprintln(os.Stderr, "attack-lab:", err)
			os.Exit(1)
		}
	}
}

func primeProbe(text bool) []Verdict {
	if text {
		fmt.Println("=== L1 Prime+Probe (Section 2.4.1) ===")
		fmt.Println("The attacker primes the L1 set of array2[secret*512], triggers the")
		fmt.Println("transient access, and re-times its own lines; a disturbed set reveals")
		fmt.Println("the transient install's eviction even after invalidation.")
	}
	ns := attack.RunPrimeProbeL1(cpu.NonSecure{}, memsys.DefaultConfig(1), 22)
	hcfg := core.HierarchyConfig(memsys.DefaultConfig(1))
	hcfg.L1.Repl = cache.ReplLRU
	cs := attack.RunPrimeProbeL1(core.New(), hcfg, 22)
	if text {
		show := func(name string, r attack.PrimeProbeResult) {
			fmt.Printf("  %-12s way latencies %v -> eviction observed: %v\n",
				name, r.WayLatency, r.EvictionObserved)
		}
		show("nonsecure", ns)
		show("cleanupspec", cs)
		fmt.Println()
	}
	detail := func(r attack.PrimeProbeResult) string {
		return fmt.Sprintf("way latencies %v", r.WayLatency)
	}
	return []Verdict{
		{Demo: "primeprobe", Policy: "nonsecure", Leak: ns.EvictionObserved, Detail: detail(ns)},
		{Demo: "primeprobe", Policy: "cleanupspec", Leak: cs.EvictionObserved, Detail: detail(cs)},
	}
}

func l2Random(text bool) []Verdict {
	if text {
		fmt.Println("=== L2 Prime+Probe vs CEASER randomization (Section 3.2) ===")
	}
	count := func(randomized bool) int {
		n := 0
		for seed := uint64(0); seed < 20; seed++ {
			if attack.L2PrimeProbeObservation(randomized, seed) {
				n++
			}
		}
		return n
	}
	mod, ceaser := count(false), count(true)
	if text {
		fmt.Printf("  modulo-indexed L2:  attacker's set prediction works in %d/20 runs\n", mod)
		fmt.Printf("  CEASER-indexed L2:  attacker's set prediction works in %d/20 runs\n", ceaser)
		fmt.Println()
	}
	// The set prediction is a usable channel when it works reliably; under
	// CEASER it degrades to a (sets·ways)⁻¹ guess that occasionally lands.
	return []Verdict{
		{Demo: "l2random", Policy: "modulo-indexed", Leak: mod > 10,
			Detail: fmt.Sprintf("set prediction works in %d/20 runs", mod)},
		{Demo: "l2random", Policy: "ceaser-indexed", Leak: ceaser > 10,
			Detail: fmt.Sprintf("set prediction works in %d/20 runs", ceaser)},
	}
}

func replState(text bool) []Verdict {
	if text {
		fmt.Println("=== Replacement-state channel (Sections 2.1 / 3.2) ===")
		fmt.Println("A transient HIT changes no tags, but under LRU it decides which line a")
		fmt.Println("later install evicts. Random replacement removes the state entirely.")
	}
	lruHit := attack.ReplacementStateChannel(cache.ReplLRU, true, 1)
	lruNoHit := attack.ReplacementStateChannel(cache.ReplLRU, false, 1)
	same := true
	for seed := uint64(0); seed < 16; seed++ {
		if attack.ReplacementStateChannel(cache.ReplRandom, true, seed) !=
			attack.ReplacementStateChannel(cache.ReplRandom, false, seed) {
			same = false
		}
	}
	if text {
		fmt.Printf("  LRU:    A survives with transient hit: %v; without: %v  (distinguishable -> leak)\n",
			lruHit, lruNoHit)
		fmt.Printf("  Random: outcome independent of the transient hit across seeds: %v\n", same)
		fmt.Println()
	}
	return []Verdict{
		{Demo: "replstate", Policy: "lru", Leak: lruHit != lruNoHit,
			Detail: fmt.Sprintf("A survives with transient hit: %v, without: %v", lruHit, lruNoHit)},
		{Demo: "replstate", Policy: "random", Leak: !same,
			Detail: fmt.Sprintf("outcome independent of transient hit across 16 seeds: %v", same)},
	}
}
