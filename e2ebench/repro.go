package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"

	"nodevar/internal/core"
	"nodevar/internal/obs"
	"nodevar/internal/systems"
)

// reproOptions are cmd/repro's defaults, so a pass matches
// `repro -exp all`.
var reproOptions = core.Options{Seed: 2015, TraceSamples: 2000, Replicates: 20000, MeasurementTrials: 200}

// calibratedPresets are the systems whose power traces the pipeline
// calibrates (Table 2 and the gaming study).
var calibratedPresets = []systems.Spec{systems.Colosse, systems.Sequoia, systems.PizDaint, systems.LCSC, systems.TsubameKFC}

// calibrateChildArg makes the binary calibrate every preset in a fresh
// process and print the seconds it took.
const calibrateChildArg = "-calibrate-child"

// setupRepeats set-ups run before the timed phase and as many again
// after it, so the reported median samples the host at both ends of
// the run rather than only in the few seconds before it. A traced run
// reports no setup_s and skips the second half.
const setupRepeats = 8

func calibratePresets() error {
	for _, s := range calibratedPresets {
		if _, _, err := systems.CalibratedTrace(s, reproOptions.TraceSamples); err != nil {
			return fmt.Errorf("calibrating %s: %w", s.Key, err)
		}
	}
	return nil
}

func calibrateChild() int {
	start := time.Now()
	if err := calibratePresets(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Println(time.Since(start).Seconds())
	return 0
}

// coldCalibration runs one calibration child and returns its seconds.
func coldCalibration() (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	out, err := exec.Command(exe, calibrateChildArg).Output()
	if err != nil {
		return 0, fmt.Errorf("calibration child: %w", err)
	}
	return strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
}

// coldCalibrations runs n calibration children in turn.
func coldCalibrations(n int) ([]float64, error) {
	var secs []float64
	for i := 0; i < n; i++ {
		s, err := coldCalibration()
		if err != nil {
			return nil, err
		}
		secs = append(secs, s)
	}
	return secs, nil
}

// reproPass runs the pipeline once and renders it as `repro -exp all`
// prints it.
func reproPass(rec *recorder, op int) ([]byte, error) {
	pass := rec.begin(0, op, "bench", "repro pass")
	defer rec.end(pass)
	sp := rec.begin(pass, op, "core", "core.RunAllCtx")
	results, err := core.RunAllCtx(context.Background(), reproOptions)
	rec.end(sp)
	if err != nil {
		return nil, err
	}
	sp = rec.begin(pass, op, "report", "Result.Render")
	defer rec.end(sp)
	var buf bytes.Buffer
	for _, res := range results {
		if err := res.Render(&buf); err != nil {
			return nil, fmt.Errorf("rendering %s: %w", res.ID(), err)
		}
		buf.WriteByte('\n')
	}
	return buf.Bytes(), nil
}

// reproPhase is one closed-loop phase of pipeline passes by one client,
// each checked against the reference rendering. It also returns each
// pass's peak resident set: the process's high-water mark is reset
// before every pass, so one pass's allocation timing cannot set the
// figure for the whole run. Where the reset is refused, the peaks are
// cumulative and perPass is false.
func reproPhase(cfg runConfig, rec *recorder, reference []byte) (ph *phase, peaks []float64, perPass bool) {
	perPass = true
	ph = closedLoop(1, cfg.Duration, 0, func(_, k int) opResult {
		if err := resetPeakRSS(); err != nil {
			perPass = false
		}
		start := time.Now()
		out, err := reproPass(rec, k)
		lat := time.Since(start)
		if err == nil {
			err = checkReproOutput(reference, out)
		}
		if mb, perr := peakRSSMB(os.Getpid()); perr == nil {
			peaks = append(peaks, mb)
		}
		return opResult{kind: "repro", lat: lat, err: err}
	})
	ph.applySLO(nil)
	return ph, peaks, perPass
}

// resetPeakRSS resets this process's VmHWM to its current resident set
// (Linux clear_refs code 5).
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

func runRepro(cfg runConfig, r *report) error {
	setup, err := coldCalibrations(setupRepeats)
	if err != nil {
		return err
	}
	// The warm-up pass is the reference every timed pass must match.
	reference, err := reproPass(nil, 0)
	if err != nil {
		return err
	}
	r.check(checkReproOutput(reference, reference) == nil, "reference pass lacks a flagship number")

	cpu0, err := procCPU(os.Getpid())
	if err != nil {
		return err
	}
	ph, peaks, perPass := reproPhase(cfg, nil, reference)
	cpu1, err := procCPU(os.Getpid())
	if err != nil {
		return err
	}
	r.addPhase(ph)
	if len(peaks) == 0 {
		return fmt.Errorf("no peak resident set read from /proc")
	}
	if !cfg.Trace {
		after, err := coldCalibrations(setupRepeats)
		if err != nil {
			return err
		}
		setup = append(setup, after...)
	}
	// A cumulative high-water mark only grows, so its median would
	// depend on the pass count: report the run's peak instead, and say so.
	if perPass {
		r.endToEnd(ph, setup, median(peaks), cpu1-cpu0)
		r.note("peak_rss_mb: median over %d passes of each pass's VmHWM %v", len(peaks), roundAll(peaks, 2))
	} else {
		r.endToEnd(ph, setup, peaks[len(peaks)-1], cpu1-cpu0)
		r.note("peak_rss_mb: NOT per pass: /proc/self/clear_refs refused the reset, so this is the VmHWM of the whole run after %d passes", len(peaks))
	}
	r.note("pass latencies, sorted (ms): %v", roundAll(ph.lats, 1))
	r.note("client.cpu_share 1 (in-process: the benchmark process does all the work; %.2f s CPU)", (cpu1 - cpu0).Seconds())
	if !cfg.Trace {
		return nil
	}

	before := obs.Default().Snapshot().Counters
	traced, _, _ := reproPhase(cfg, r.spans, reference)
	after := obs.Default().Snapshot().Counters
	r.addPhase(traced)
	r.traceOverhead(ph, traced)
	r.setLayer("client.cpu_share", 1, "ratio")
	r.setLayer("sampling.replicates", perOp(after["sampling.bootstrap.replicates"]-before["sampling.bootstrap.replicates"], traced.attempted), "count/op")
	return runProbes(cfg, r)
}

// perOp divides a counter delta by an operation count.
func perOp(n int64, ops int) float64 {
	if ops == 0 {
		return 0
	}
	return float64(n) / float64(ops)
}

// memDelta reads the Go runtime's cumulative allocation and GC counts.
func memDelta() (allocMB float64, gcs uint32) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc) / (1 << 20), ms.NumGC
}
