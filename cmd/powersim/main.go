// Command powersim simulates a studied system's HPL run and reports its
// power profile: segment averages (Table 2 style), gaming exposure, and
// optionally the raw trace as CSV.
//
// Usage:
//
//	powersim -system lcsc
//	powersim -system pizdaint -csv trace.csv -samples 5000
//	powersim -list
package main

import (
	"flag"
	"fmt"
	"os"

	"nodevar/internal/cli"
	"nodevar/internal/faults"
	"nodevar/internal/methodology"
	"nodevar/internal/power"
	"nodevar/internal/report"
	"nodevar/internal/rng"
	"nodevar/internal/systems"
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		system     = flag.String("system", "lcsc", "system key (see -list)")
		samples    = flag.Int("samples", 2000, "trace resolution")
		csvPath    = flag.String("csv", "", "write the trace as CSV to this path")
		list       = flag.Bool("list", false, "list available systems")
		meterKey   = flag.String("meter", "", "re-measure the simulated trace through a meter preset (see -list-meters)")
		meterSeed  = flag.Uint64("meter-seed", 2015, "seed for the -meter instrument draw")
		listMeters = flag.Bool("list-meters", false, "list available meter presets")
		analyze    = flag.String("analyze", "", "analyze a time,power CSV trace instead of simulating")
		obsFlags   = cli.RegisterObsFlags()
		faultFlags = cli.RegisterFaultFlags()
		execFlags  = cli.RegisterExecFlags()
	)
	flag.Parse()

	sched, err := faultFlags.Schedule()
	if err != nil {
		cli.Fatal(err)
	}

	run, err := obsFlags.Start("powersim")
	if err != nil {
		cli.Fatal(err)
	}
	ctx, stop := run.Context(execFlags)
	defer stop()
	run.SetConfig("system", *system)
	run.SetConfig("samples", *samples)
	if !sched.IsZero() {
		run.SetConfig("faults", sched.String())
	}

	if *analyze != "" {
		run.SetConfig("analyze", *analyze)
		return run.Close(analyzeCSV(*analyze, sched, run))
	}

	if *list {
		t := report.NewTable("Available systems", "Key", "Name", "Site", "Nodes", "Trace targets")
		for _, s := range systems.All() {
			hasTrace := "no"
			if s.Trace != nil {
				hasTrace = "yes"
			}
			t.AddRow(s.Key, s.Name, s.Site, fmt.Sprint(s.TotalNodes), hasTrace)
		}
		return run.Close(t.WriteText(os.Stdout))
	}

	if *listMeters {
		t := report.NewTable("Available meter presets", "Key", "Architecture", "Description")
		for _, p := range systems.MeterPresets() {
			t.AddRow(p.Key, p.Model.ModelName(), p.Description)
		}
		return run.Close(t.WriteText(os.Stdout))
	}

	spec, err := systems.ByKey(*system)
	if err != nil {
		return run.Close(err)
	}
	tr, cal, err := systems.CalibratedTrace(spec, *samples)
	if err != nil {
		return run.Close(err)
	}
	// A SIGINT during calibration (the expensive step) lands here; the
	// run unwinds with a manifest instead of printing half a report.
	if err := ctx.Err(); err != nil {
		return run.Close(err)
	}
	// Fault injection: with a zero schedule Apply returns tr itself and
	// Sanitize is skipped, so the fault-free output is byte-identical to
	// a run without -faults.
	tr, frep, err := sched.Apply(tr)
	if err != nil {
		return run.Close(err)
	}
	sanitized := 0
	if frep.Injected() {
		tr, sanitized, err = tr.Sanitize()
		if err != nil {
			return run.Close(err)
		}
		run.SetFaults(frep.ManifestSection())
	}
	rep, err := power.Segments(tr)
	if err != nil {
		return run.Close(err)
	}
	fmt.Printf("%s (%s)\n", spec.Name, spec.Site)
	fmt.Printf("  HPL runtime:        %.2f h (matrix order %d, Rmax %.1f TFLOPS)\n",
		rep.Duration/3600, cal.Run.Config.MatrixOrder, float64(cal.Run.Rmax)/1000)
	fmt.Printf("  core-phase power:   %s\n", rep.Core)
	fmt.Printf("  first 20%%:          %s\n", rep.First20)
	fmt.Printf("  last 20%%:           %s\n", rep.Last20)
	fmt.Printf("  segment spread:     %.1f%%\n", rep.MaxSpread()*100)
	fmt.Printf("  calibration error:  %.3f%% vs published Table 2 values\n", cal.MaxRelErr*100)

	gaming, err := methodology.AnalyzeGaming(spec.Name, tr)
	if err != nil {
		return run.Close(err)
	}
	fmt.Printf("  Level-1 gaming:     best window [%.0f s, %.0f s] reports %.1f%% less power (+%.1f%% efficiency)\n",
		gaming.WindowLo, gaming.WindowHi, gaming.PowerReduction*100, gaming.EfficiencyGain*100)
	printDegraded(frep, sanitized)

	if *meterKey != "" {
		preset, err := systems.MeterByKey(*meterKey)
		if err != nil {
			return run.Close(err)
		}
		run.SetConfig("meter", preset.Key)
		run.SetConfig("meter_seed", *meterSeed)
		inst, err := preset.Model.NewInstrument(rng.New(*meterSeed))
		if err != nil {
			return run.Close(err)
		}
		trueAvg, err := tr.AverageBetween(tr.Start(), tr.End())
		if err != nil {
			return run.Close(err)
		}
		reported, err := inst.AveragePower(tr, tr.Start(), tr.End())
		if err != nil {
			return run.Close(err)
		}
		shift := (float64(reported) - float64(trueAvg)) / float64(trueAvg)
		fmt.Printf("  meter %-12s  reports %.1f kW vs true %.1f kW (%+.2f%% — %s architecture)\n",
			preset.Key+":", reported.Kilowatts(), trueAvg.Kilowatts(), shift*100, preset.Model.ModelName())
	}

	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			return run.Close(err)
		}
		defer f.Close()
		t := report.NewTable("", "time_s", "power_w")
		for _, s := range tr.Samples() {
			t.AddRow(fmt.Sprintf("%.2f", s.Time), fmt.Sprintf("%.1f", float64(s.Power)))
		}
		if err := t.WriteCSV(f); err != nil {
			return run.Close(err)
		}
		fmt.Printf("  trace written:      %s (%d samples)\n", *csvPath, tr.Len())
	}
	return run.Close(nil)
}

// minWindowSamples is the fewest samples a 20% Level-1 window should
// contain before its average is trusted: below this, sampling cadence —
// not the machine — dominates what the window reports (the
// nvidia-smi-style pitfall of unobserved sampling resolution).
const minWindowSamples = 10

// analyzeCSV runs the segment and gaming analysis on a user-supplied
// time,power CSV trace — the same analysis the paper applies to the
// Green500's published run data. It reports the trace's sampling
// cadence and warns when the trace is too coarse to resolve a 20%
// Level-1 measurement window. A non-zero fault schedule corrupts the
// trace before analysis (replaying a chaos scenario against real data);
// degraded input — injected or present in the CSV itself as NaN
// readings or sampling gaps — is flagged, never silently analyzed as
// clean.
func analyzeCSV(path string, sched faults.Schedule, run *cli.Run) error {
	log := run.Log
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	tr, err := power.ReadCSV(f)
	if err != nil {
		return err
	}
	tr, frep, err := sched.Apply(tr)
	if err != nil {
		return err
	}
	if frep.Injected() {
		run.SetFaults(frep.ManifestSection())
	}
	// Real collectors emit NaN glitches too; drop them so the analysis
	// can proceed, and report the loss below. A clean trace passes
	// through untouched (the same pointer).
	tr, sanitized, err := tr.Sanitize()
	if err != nil {
		return err
	}
	rep, err := power.Segments(tr)
	if err != nil {
		return err
	}
	fmt.Printf("%s: %d samples over %.1f s\n", path, tr.Len(), tr.Duration())

	// Sampling-cadence report: the mean interval plus the largest gap,
	// then how many samples actually land inside a 20% window.
	meanInterval := tr.Duration() / float64(tr.Len()-1)
	var maxGap float64
	ts := tr.Samples()
	for i := 1; i < len(ts); i++ {
		if gap := ts[i].Time - ts[i-1].Time; gap > maxGap {
			maxGap = gap
		}
	}
	window := 0.2 * tr.Duration()
	perWindow := window / meanInterval
	fmt.Printf("  sampling:           %d samples, mean interval %.2f s (max gap %.2f s), ~%.0f samples per 20%% window\n",
		tr.Len(), meanInterval, maxGap, perWindow)
	if perWindow < minWindowSamples {
		log.Warn("trace too coarse to resolve a 20% Level-1 window",
			"samples", tr.Len(),
			"mean_interval_s", meanInterval,
			"max_gap_s", maxGap,
			"window_s", window,
			"samples_per_window", perWindow,
			"min_samples_per_window", minWindowSamples)
	}

	// Gap-aware completeness: treat anything over 5x the mean cadence as
	// a data gap (a dropped-sample window, not just slow sampling). The
	// tolerant query delegates to the exact fast path when the trace has
	// no gaps, so clean traces produce byte-identical reports.
	_, wq, err := tr.AverageBetweenTolerant(tr.Start(), tr.End(), 5*meanInterval)
	if err != nil {
		return err
	}
	degradedInput := wq.Gaps > 0 || sanitized > 0 || frep.Injected()
	if degradedInput {
		fmt.Printf("  data quality:       %.1f%% complete (%d gaps, longest %.1f s, %d non-finite readings removed)\n",
			wq.Completeness*100, wq.Gaps, wq.LongestGap, sanitized)
		log.Warn("trace is incomplete; all figures are best-effort estimates",
			"completeness", wq.Completeness,
			"gaps", wq.Gaps,
			"longest_gap_s", wq.LongestGap,
			"sanitized", sanitized)
	}

	fmt.Printf("  core-phase power:   %s\n", rep.Core)
	fmt.Printf("  first 20%%:          %s\n", rep.First20)
	fmt.Printf("  last 20%%:           %s\n", rep.Last20)
	fmt.Printf("  segment spread:     %.1f%%\n", rep.MaxSpread()*100)
	gaming, err := methodology.AnalyzeGaming(path, tr)
	if err != nil {
		return err
	}
	fmt.Printf("  Level-1 gaming:     best window [%.0f s, %.0f s] reports %.1f%% less power (+%.1f%% efficiency)\n",
		gaming.WindowLo, gaming.WindowHi, gaming.PowerReduction*100, gaming.EfficiencyGain*100)
	printDegraded(frep, sanitized)
	return nil
}

// printDegraded appends the degraded-measurement statement when faults
// were injected. Fault-free runs print nothing, keeping their output
// byte-identical to a build without fault injection.
func printDegraded(frep *faults.Report, sanitized int) {
	if frep == nil || !frep.Injected() {
		return
	}
	fmt.Printf("  faults injected:    %s\n", frep.Schedule)
	fmt.Printf("  DEGRADED:           completeness %.1f%% (%d samples dropped, %d stuck, %d glitched, %d removed as non-finite) — figures above are best-effort estimates\n",
		frep.Completeness*100, frep.DroppedSamples, frep.StuckSamples,
		frep.GlitchNaN+frep.GlitchSpike, sanitized)
}
