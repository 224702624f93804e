package main

// `campaign gc` and `campaign replay`: the cache-lifecycle and
// diagnostics subcommands for operating a long-lived cache.

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/campaign"
	"repro/internal/specfuzz"
	"repro/internal/trace"
)

func cmdGC(args []string) error {
	fs := flag.NewFlagSet("campaign gc", flag.ExitOnError)
	var (
		cacheDir     = fs.String("cache", ".campaign", "cache directory")
		maxAge       = fs.Duration("max-age", 0, "evict entries older than this (0 = no age criterion)")
		gridName     = fs.String("grid", "", "evict entries not belonging to this grid")
		workloadsF   = fs.String("workloads", "", "comma-separated workload override (with -grid)")
		policiesF    = fs.String("policies", "", "comma-separated policy override (with -grid)")
		seedsF       = fs.String("seeds", "", "seed sweep (with -grid)")
		instructions = fs.Uint64("instructions", 150_000, "measurement window (with -grid)")
		dryRun       = fs.Bool("dry-run", false, "report what would be evicted, touch nothing")
	)
	fs.Parse(args)

	// The grid-shaping flags only mean something relative to -grid; without
	// it they would be silently dropped and gc would evict by age alone.
	if *gridName == "" {
		var stray []string
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "workloads", "policies", "seeds", "instructions":
				stray = append(stray, "-"+f.Name)
			}
		})
		if len(stray) > 0 {
			return fmt.Errorf("gc: %s: only valid with -grid", strings.Join(stray, ", "))
		}
	}

	opts := campaign.GCOptions{MaxAge: *maxAge, DryRun: *dryRun}
	if *gridName != "" {
		_, jobs, err := resolveGrid(*gridName, *workloadsF, *policiesF, *seedsF, *instructions)
		if err != nil {
			return err
		}
		opts.Keep = make(map[string]bool, len(jobs))
		for _, job := range jobs {
			key, err := job.Key()
			if err != nil {
				return err
			}
			opts.Keep[key] = true
		}
	}
	rep, err := campaign.GC(*cacheDir, opts)
	if err != nil {
		return err
	}
	fmt.Println(rep)
	return nil
}

func cmdReplay(args []string) error {
	fs := flag.NewFlagSet("campaign replay", flag.ExitOnError)
	var (
		depth    = fs.Int("depth", campaign.ReplayDepth, "replay trace capacity in events")
		traceOut = fs.String("trace-out", "", "write the replay's full event trace to this file as Perfetto JSON (- = text to stdout)")
	)
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: campaign replay [flags] <quarantine-dump.json>")
	}
	dump, err := campaign.LoadDump(fs.Arg(0))
	if err != nil {
		return err
	}
	eng := campaign.NewReplayEngine()
	specfuzz.Register(eng)
	fmt.Fprintf(os.Stderr, "campaign: replaying %s (originally quarantined: %s)\n", dump.Job, dump.Panic)
	rep, err := campaign.Replay(eng, dump, *depth)
	if err != nil {
		return err
	}
	if rep.Reproduced {
		fmt.Printf("replay: REPRODUCED — %v\n", rep.Result.Err)
	} else if rep.Result.Err != nil {
		fmt.Printf("replay: failed differently — %v\n", rep.Result.Err)
	} else {
		fmt.Println("replay: clean — the quarantined panic did not reproduce (fixed engine, or nondeterministic fault)")
	}
	fmt.Printf("replay: %d event(s) captured at full depth", len(rep.Events))
	if rep.Dropped > 0 {
		fmt.Printf(" (%d dropped: cell out-ran the %d-event capacity; raise -depth)", rep.Dropped, *depth)
	}
	fmt.Println()
	switch *traceOut {
	case "":
	case "-":
		if err := trace.WriteText(os.Stdout, rep.Events); err != nil {
			return err
		}
	default:
		if err := trace.WriteChromeFile(*traceOut, []trace.Run{{Process: dump.Job.String(), Events: rep.Events}}); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "campaign: wrote %d event(s) as a Perfetto trace to %s\n", len(rep.Events), *traceOut)
	}
	if rep.Reproduced {
		return fmt.Errorf("quarantined panic reproduced")
	}
	return nil
}
