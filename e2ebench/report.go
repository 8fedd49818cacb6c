package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// report accumulates one run's operation counts, metrics, sample-count
// notes and spans, and renders the final verdict.
type report struct {
	cfg       runConfig
	attempted int
	failed    int
	failures  []string
	e2e       map[string]metric
	layer     map[string]metric
	notes     []string
	spans     *recorder // nil unless -trace 1

	spinBefore, spinAfter float64
}

func newReport(cfg runConfig) *report {
	r := &report{cfg: cfg, e2e: map[string]metric{}, layer: map[string]metric{}}
	if cfg.Trace {
		r.spans = newRecorder()
	}
	return r
}

// fail counts one failed operation (a mismatch, a bad status, a wrong
// work count) and keeps its description for the summary.
func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// check counts one verified operation, failing it when ok is false.
func (r *report) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.fail(format, args...)
	}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *report) setLayer(name string, v float64, unit string) {
	r.layer[name] = metric{Value: v, Unit: unit}
}

// addPhase folds a closed-loop phase's operations into the run totals.
func (r *report) addPhase(ph *phase) {
	r.attempted += ph.attempted
	r.failed += ph.failed
	for _, e := range ph.errors {
		if len(r.failures) < 20 {
			r.failures = append(r.failures, e)
		}
	}
}

// endToEnd sets the four end-to-end metrics from the untraced timed
// phase, the median set-up time, the peak resident set and the CPU time
// the processes doing the work spent in the phase. Wall-clock
// throughput and tail latency go to the per-layer diagnostics
// loop.ops_per_s and loop.p99_ms instead: on a guest of a shared host
// both count the host's stalls more than the program's work (see
// README.md), so neither is gated.
func (r *report) endToEnd(ph *phase, setup []float64, peakRSSMB float64, cpu time.Duration) {
	p50, p50n := ph.median()
	tail := ph.tail()
	cpuMs := float64(cpu) / float64(time.Millisecond)
	r.e2e["setup_s"] = metric{Value: median(setup), Unit: "s"}
	r.e2e["p50_ms"] = metric{Value: p50, Unit: "ms"}
	r.e2e["cpu_ms_per_op"] = metric{Value: cpuMs / float64(ph.ok), Unit: "ms"}
	r.e2e["peak_rss_mb"] = metric{Value: peakRSSMB, Unit: "MB"}
	r.setLayer("loop.ops_per_s", ph.opsPerSecond(), "1/s")
	r.setLayer("loop.p99_ms", tail.ms, "ms")
	r.note("setup_s: median of %d set-ups %v", len(setup), roundAll(setup, 4))
	r.note("p50_ms: median of n=%d verified operations", p50n)
	r.note("cpu_ms_per_op: %.1f ms CPU over n=%d verified operations", cpuMs, ph.ok)
	r.note("loop.ops_per_s %.6g (diagnostic, not gated): %d verified operations in %.3f s (tail within SLO: %t)",
		ph.opsPerSecond(), ph.ok, ph.elapsed.Seconds(), ph.sloOK)
	r.note("loop.p99_ms %.6g (diagnostic, not gated): %s", tail.ms, tail.describe())
}

// traceOverhead records traced-minus-untraced end-to-end numbers.
func (r *report) traceOverhead(untraced, traced *phase) {
	u50, _ := untraced.median()
	t50, _ := traced.median()
	r.setLayer("trace.p50_ms", t50, "ms")
	r.setLayer("trace.overhead_p50_ms", t50-u50, "ms")
	r.setLayer("trace.overhead_ops_per_s", untraced.opsPerSecond()-traced.opsPerSecond(), "1/s")
}

// finish picks the metric set the run reports: end-to-end metrics
// untraced, per-layer metrics traced. A value that is not a finite
// number (a ratio over no work) fails the run and reads 0, so the
// verdict can still be encoded.
func (r *report) finish() result {
	metrics := r.e2e
	if r.cfg.Trace {
		r.setLayer("host.spin_ms", (r.spinBefore+r.spinAfter)/2, "ms")
		if r.spans != nil {
			self := r.spans.selfTimes()
			for _, l := range spanLayers {
				r.setLayer("self."+l+"_ms", float64(self[l])/float64(time.Millisecond), "ms")
			}
			r.setLayer("trace.spans", float64(r.spans.len()), "count")
		}
		metrics = r.layer
	}
	for _, k := range sortedKeys(metrics) {
		if m := metrics[k]; math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			r.fail("metric %s is %v", k, m.Value)
			metrics[k] = metric{Value: 0, Unit: m.Unit}
		}
	}
	return result{
		Correct:   r.failed == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   metrics,
	}
}

func (r *report) printSummary(w io.Writer) {
	fmt.Fprintf(w, "workload %s seed %d seconds %.1f trace %t nproc %d\n",
		r.cfg.Workload, r.cfg.Seed, r.cfg.Duration.Seconds(), r.cfg.Trace, runtime.NumCPU())
	for _, n := range r.notes {
		fmt.Fprintln(w, "  "+n)
	}
	fmt.Fprintf(w, "  host.spin_ms before %.3f after %.3f (diagnostic, not gated)\n", r.spinBefore, r.spinAfter)
	for _, k := range sortedKeys(r.e2e) {
		m := r.e2e[k]
		fmt.Fprintf(w, "  e2e   %-32s %14.6g %s\n", k, m.Value, m.Unit)
	}
	if r.cfg.Trace {
		for _, k := range sortedKeys(r.layer) {
			m := r.layer[k]
			fmt.Fprintf(w, "  layer %-32s %14.6g %s\n", k, m.Value, m.Unit)
		}
	}
	fmt.Fprintf(w, "  operations attempted %d failed %d\n", r.attempted, r.failed)
	for _, f := range r.failures {
		fmt.Fprintln(w, "  FAILED: "+f)
	}
}

// writeSpans writes the traced run's spans, kept in memory until now,
// as Chrome-trace JSON below the output directory.
func (r *report) writeSpans() error {
	if r.spans == nil {
		return nil
	}
	dir := filepath.Join(r.cfg.OutDir, "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", r.cfg.Workload, r.cfg.Seed))
	return r.spans.writeChrome(path)
}

func roundAll(xs []float64, digits int) []float64 {
	p := math.Pow(10, float64(digits))
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = math.Round(x*p) / p
	}
	return out
}
