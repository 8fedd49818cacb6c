// Package obs is the observability layer of the simulator: a lock-cheap
// metrics registry (atomic counters, gauges and fixed-bucket histograms
// with deterministic snapshots, exported as JSON and Prometheus text), a phase tracer whose
// spans land in an in-memory ring buffer and can be streamed as
// Chrome-trace JSON (chrome://tracing, Perfetto), structured slog-based
// run logging, and a run manifest that ties a command invocation to its
// configuration, per-phase timings and final metric snapshot.
//
// Everything is designed to cost nothing when disabled: the process-wide
// tracer defaults to nil and every Span method on a nil tracer is a
// branch-and-return with zero allocations (see BenchmarkDisabledSpan),
// and hot-path counters are single atomic adds, batched where a path is
// hot enough for even that to show.
package obs

import "sync/atomic"

// active holds the process-wide tracer. It is nil until SetTracer
// installs one, and every instrumentation site tolerates nil.
var active atomic.Pointer[Tracer]

// SetTracer installs t as the process-wide tracer returned by T.
// Passing nil disables tracing again.
func SetTracer(t *Tracer) {
	active.Store(t)
}

// T returns the process-wide tracer, or nil when tracing is disabled.
// All Tracer and Span methods are safe (and free) on a nil receiver, so
// call sites write obs.T().Start(...) unconditionally.
func T() *Tracer {
	return active.Load()
}
