// Command chaos replays deterministic fault-injection scenarios against
// the simulated measurement pipeline and checks the harness invariants:
// the no-fault path is bit-identical to the healthy path, every seed
// replays byte-identically, data loss is always flagged, and a changed
// answer is never silent. It exits non-zero if any invariant breaks.
//
// Usage:
//
//	chaos -seeds 8 -faults "drop=0.02,glitch=0.01,nodedrop=0.15"
//	chaos -seeds 4 -nodes 32 -duration 900 -faults "stuck=0.05,jitter=0.2"
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"nodevar/internal/cli"
	"nodevar/internal/faults"
	"nodevar/internal/faults/chaostest"
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		seeds      = flag.Int("seeds", 8, "number of consecutive seeds to replay")
		firstSeed  = flag.Uint64("first-seed", 1, "first seed of the range")
		nodes      = flag.Int("nodes", 16, "simulated cluster size")
		duration   = flag.Float64("duration", 600, "core-phase length in seconds")
		util       = flag.Float64("util", 0.8, "constant machine utilization")
		verbose    = flag.Bool("report", false, "print each seed's full outcome text")
		obsFlags   = cli.RegisterObsFlags()
		faultFlags = cli.RegisterFaultFlags()
		execFlags  = cli.RegisterExecFlags()
	)
	flag.Parse()

	sched, err := faultFlags.Schedule()
	if err != nil {
		cli.Fatal(err)
	}
	run, err := obsFlags.Start("chaos")
	if err != nil {
		cli.Fatal(err)
	}
	ctx, stop := run.Context(execFlags)
	defer stop()
	run.SetConfig("seeds", *seeds)
	run.SetConfig("first_seed", *firstSeed)
	run.SetConfig("nodes", *nodes)
	run.SetConfig("duration_sec", *duration)
	run.SetConfig("util", *util)
	run.SetConfig("faults", sched.String())

	violations := 0
	replayed := 0
	var merged faults.Report
	merged.Completeness = 1
	for i := 0; i < *seeds; i++ {
		// Each seed is an independent replay, so a cancellation between
		// seeds loses nothing: the seeds already checked stand on their
		// own and the run reports how far it got.
		if err := ctx.Err(); err != nil {
			fmt.Printf("interrupted after %d of %d seeds\n", replayed, *seeds)
			run.SetFaults(merged.ManifestSection())
			return run.Close(err)
		}
		sc := chaostest.Scenario{
			Nodes:       *nodes,
			DurationSec: *duration,
			Util:        *util,
			Schedule:    sched,
		}
		sc.Schedule.Seed = *firstSeed + uint64(i)

		out, err := chaostest.Run(sc)
		if err != nil {
			return run.Close(err)
		}
		replay, err := chaostest.Run(sc)
		if err != nil {
			return run.Close(err)
		}
		merged.Merge(out.Report)
		replayed++

		bad := func(format string, args ...any) {
			violations++
			fmt.Printf("  INVARIANT VIOLATED: %s\n", fmt.Sprintf(format, args...))
		}
		fmt.Printf("seed %d: healthy %.1f W, degraded %.1f W, completeness %.4f, degraded=%v\n",
			sc.Schedule.Seed, float64(out.HealthyAvg), float64(out.DegradedAvg),
			out.Completeness, out.Degraded)
		if *verbose {
			fmt.Print(out.Text())
		}
		if out.Text() != replay.Text() {
			bad("seed %d did not replay byte-identically", sc.Schedule.Seed)
		}
		if sched.IsZero() && (out.DegradedAvg != out.HealthyAvg || out.Degraded) {
			bad("zero schedule was not a strict pass-through")
		}
		if out.DegradedAvg != out.HealthyAvg && !out.Degraded {
			bad("answer changed without a degradation flag (silent wrong answer)")
		}
		if v := float64(out.DegradedAvg); math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
			bad("degraded estimate %v is not a usable number", v)
		}
	}

	run.SetFaults(merged.ManifestSection())
	if violations > 0 {
		fmt.Printf("%d invariant violation(s) across %d seeds\n", violations, *seeds)
		_ = run.Close(fmt.Errorf("%d invariant violation(s)", violations))
		return 1
	}
	fmt.Printf("all invariants held across %d seeds\n", *seeds)
	return run.Close(nil)
}
