// Command coverage runs the paper's Figure 3 bootstrap study: how well
// calibrated t-based confidence intervals are when estimating full-system
// power from n-node subsets of a simulated machine resampled from a pilot
// dataset.
//
// Usage:
//
//	coverage                                  # LRZ pilot defaults
//	coverage -replicates 100000 -n 3,5,10,20  # the paper's scale
//	coverage -system titan -population 18688
//	coverage -replicates 100000 -checkpoint cov.ckpt -resume
//
// -checkpoint keeps the study's progress in a file; -resume continues
// from it (a missing file is a fresh start) with output byte-identical
// to an uninterrupted run. SIGINT/SIGTERM cancel the study at the next
// chunk boundary, flushing the checkpoint (when configured) and an
// "interrupted" manifest before exiting 130; a second signal exits
// immediately. A failed study exits 1 with a "failed" manifest.
package main

import (
	"flag"
	"fmt"
	"os"

	"nodevar/internal/cli"
	"nodevar/internal/report"
	"nodevar/internal/sampling"
	"nodevar/internal/systems"
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		system     = flag.String("system", "lrz", "system preset supplying the pilot dataset")
		pilotSize  = flag.Int("pilot", 516, "pilot sample size (0 = all measured nodes)")
		population = flag.Int("population", 0, "simulated machine size (0 = the system's node count)")
		replicates = flag.Int("replicates", 20000, "bootstrap replicates per point")
		seed       = flag.Uint64("seed", 2015, "random seed")
		nList      = flag.String("n", "3,5,10,15,20,30,50,100", "comma-separated subset sizes")
		levelList  = flag.String("levels", "0.80,0.95,0.99", "comma-separated confidence levels")
		obsFlags   = cli.RegisterObsFlags()
		execFlags  = cli.RegisterExecFlags()
	)
	execFlags.RegisterCheckpoint(flag.CommandLine)
	flag.Parse()
	if err := execFlags.Validate(); err != nil {
		cli.Fatal(err)
	}

	run, err := obsFlags.Start("coverage")
	if err != nil {
		cli.Fatal(err)
	}
	ctx, stop := run.Context(execFlags)
	defer stop()
	run.SetConfig("system", *system)
	run.SetConfig("pilot", *pilotSize)
	run.SetConfig("replicates", *replicates)
	run.SetConfig("seed", *seed)
	run.SetConfig("n", *nList)
	run.SetConfig("levels", *levelList)

	spec, err := systems.ByKey(*system)
	if err != nil {
		cli.Fatal(err)
	}
	pilot, err := systems.PilotSample(spec, *seed, *pilotSize)
	if err != nil {
		cli.Fatal(err)
	}
	pop := *population
	if pop == 0 {
		pop = spec.TotalNodes
	}
	ns, err := cli.ParseInts(*nList)
	if err != nil {
		cli.Fatal(err)
	}
	levels, err := cli.ParseFloats(*levelList)
	if err != nil {
		cli.Fatal(err)
	}
	resume, sink, err := run.Progress(execFlags)
	if err != nil {
		return run.Close(err)
	}

	points, err := sampling.CoverageStudyCtx(ctx, sampling.CoverageConfig{
		Pilot:        pilot,
		Population:   pop,
		SampleSizes:  ns,
		Levels:       levels,
		Replicates:   *replicates,
		Seed:         *seed,
		ResumeData:   resume,
		OnCheckpoint: sink,
	})
	if err != nil {
		return run.Close(err)
	}

	headers := []string{"n"}
	for _, lv := range levels {
		headers = append(headers, fmt.Sprintf("%.0f%% coverage", lv*100))
	}
	t := report.NewTable(
		fmt.Sprintf("CI coverage: %d-node pilot from %s, simulated N = %d, %d replicates",
			len(pilot), spec.Name, pop, *replicates),
		headers...)
	for _, n := range ns {
		row := []string{fmt.Sprint(n)}
		for _, lv := range levels {
			for _, p := range points {
				if p.SampleSize == n && p.Level == lv {
					row = append(row, fmt.Sprintf("%.4f", p.Coverage))
				}
			}
		}
		t.AddRow(row...)
	}
	if err := t.WriteText(os.Stdout); err != nil {
		cli.Fatal(err)
	}
	return run.Close(nil)
}
