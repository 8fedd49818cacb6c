// Package parallel provides small, deterministic parallel-execution
// helpers used by the simulation and bootstrap engines.
//
// The design goal is reproducibility under parallelism: work is divided
// into index ranges up front, each range can be handed its own RNG stream,
// and results are written to caller-owned, pre-sized slices so that the
// outcome never depends on goroutine scheduling.
//
// The context-aware entry points (ForDynamicCtx, ForRangesCtx) check for
// cancellation cooperatively at chunk boundaries: a canceled call stops
// scheduling new chunks, lets in-flight chunks finish, and returns
// ctx.Err(). Chunks are never torn — a chunk either ran to completion or
// never started — so index-addressed partial results remain usable.
// Worker panics are isolated on every path: the panic is recovered,
// counted, and surfaced as a *PanicError instead of crashing the process.
package parallel

import (
	"context"
	"errors"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"nodevar/internal/obs"
	"nodevar/internal/rng"
)

// Scheduler metrics. Utilization is cumulative worker-busy seconds over
// cumulative worker-wall seconds (workers x call wall time): 1.0 means
// every worker was busy for the whole call, lower values expose load
// imbalance or stragglers. Timing is per worker per call — two clock
// reads around an entire chunk of work — so the overhead is invisible
// next to the work itself. Both counters are flushed in defers, so calls
// that end early (cancellation, a recovered worker panic) still account
// their wall and busy time instead of silently under-reporting
// utilization.
var (
	mParCalls  = obs.NewCounter("parallel.calls")
	mParItems  = obs.NewCounter("parallel.items")
	mParPanics = obs.NewCounter("parallel.worker_panics_recovered")
	fParBusy   = obs.NewFloatCounter("parallel.worker_busy_seconds")
	fParWall   = obs.NewFloatCounter("parallel.worker_wall_seconds")
	gParUtil   = obs.NewGauge("parallel.utilization")
)

// observeCall records one completed parallel call's shape and refreshes
// the cumulative utilization gauge.
func observeCall(items, workers int, wall time.Duration) {
	mParCalls.Inc()
	mParItems.Add(int64(items))
	fParWall.Add(wall.Seconds() * float64(workers))
	if w := fParWall.Value(); w > 0 {
		gParUtil.Set(fParBusy.Value() / w)
	}
}

// Workers returns the degree of parallelism to use: the smaller of
// GOMAXPROCS and n (never below 1). Passing n <= 0 means "no cap".
func Workers(n int) int {
	w := runtime.GOMAXPROCS(0)
	if w < 1 {
		w = 1
	}
	if n > 0 && w > n {
		w = n
	}
	return w
}

// Range describes a half-open index interval [Lo, Hi) assigned to one worker.
type Range struct {
	Lo, Hi int
}

// SplitRange divides [0, n) into at most parts contiguous, near-equal
// ranges. Empty ranges are omitted, so the result may be shorter than
// parts. It panics if parts <= 0 or n < 0.
func SplitRange(n, parts int) []Range {
	if parts <= 0 {
		panic("parallel: SplitRange with parts <= 0")
	}
	if n < 0 {
		panic("parallel: SplitRange with n < 0")
	}
	if parts > n {
		parts = n
	}
	out := make([]Range, 0, parts)
	for i := 0; i < parts; i++ {
		lo := i * n / parts
		hi := (i + 1) * n / parts
		if lo < hi {
			out = append(out, Range{Lo: lo, Hi: hi})
		}
	}
	return out
}

// exec is the shared executor behind every entry point: it runs the
// listed ranges across up to workers goroutines, pulling the next range
// from a shared counter (dynamic scheduling). Cancellation is checked
// before each range is claimed, so a canceled call returns after the
// in-flight ranges finish — never mid-range. A panicking range aborts
// the remaining schedule and the call returns a *PanicError carrying the
// panic value and worker stack. Wall and busy accounting is flushed in
// defers so failed calls report utilization too.
func exec(ctx context.Context, items, workers int, ranges []Range, body func(ci int, r Range)) error {
	if len(ranges) == 0 {
		return ctx.Err()
	}
	if workers > len(ranges) {
		workers = len(ranges)
	}
	if workers < 1 {
		workers = 1
	}
	t0 := time.Now()
	defer func() { observeCall(items, workers, time.Since(t0)) }()

	var (
		next      atomic.Int64
		panicOnce sync.Once
		pErr      *PanicError
		aborted   atomic.Bool
	)
	runRange := func(ci int) {
		defer func() {
			if v := recover(); v != nil {
				// Stop the other workers claiming ranges before the
				// stack capture, which takes longer than many items.
				aborted.Store(true)
				mParPanics.Inc()
				pe := &PanicError{Value: v, Stack: debug.Stack()}
				panicOnce.Do(func() { pErr = pe })
			}
		}()
		// Inside a traced request each claimed range gets its own span
		// (worker-level visibility). Only a context-carried span records
		// here — never the process-tracer fallback, whose ring a
		// range-per-span flood would evict — so plain CLI runs see no
		// change and the disabled path stays free.
		var sp obs.Span
		if _, ok := obs.SpanRefFromContext(ctx); ok {
			sp, _ = obs.StartSpanCtx(ctx, "parallel", "range")
		}
		body(ci, ranges[ci])
		sp.End()
	}
	worker := func() {
		tw := time.Now()
		defer func() { fParBusy.Add(time.Since(tw).Seconds()) }()
		for {
			if aborted.Load() || ctx.Err() != nil {
				return
			}
			ci := int(next.Add(1)) - 1
			if ci >= len(ranges) {
				return
			}
			runRange(ci)
		}
	}
	if workers == 1 {
		worker()
	} else {
		var wg sync.WaitGroup
		wg.Add(workers)
		for k := 0; k < workers; k++ {
			go func() {
				defer wg.Done()
				worker()
			}()
		}
		wg.Wait()
	}
	if pErr != nil {
		return pErr
	}
	return ctx.Err()
}

// sumItems returns the total index count covered by the ranges.
func sumItems(ranges []Range) int {
	total := 0
	for _, r := range ranges {
		total += r.Hi - r.Lo
	}
	return total
}

// must adapts a context-free executor call to the legacy void API: with
// context.Background() the only possible failure is a recovered worker
// panic, which is re-raised on the calling goroutine so a caller's
// recover can observe the *PanicError (the process no longer dies on an
// unrelated goroutine's stack).
func must(err error) {
	if err == nil {
		return
	}
	var pe *PanicError
	if errors.As(err, &pe) {
		panic(pe)
	}
	panic(err)
}

// ForDynamic runs body(i) for every i in [0, n) with dynamic scheduling:
// workers pull the next index from a shared counter instead of owning a
// fixed range, so wildly heterogeneous per-item costs balance
// automatically. body must be safe for concurrent invocation on distinct
// indices and should write results to caller-owned, index-addressed
// storage, which keeps the outcome independent of scheduling order.
func ForDynamic(n int, body func(i int)) {
	must(ForDynamicCtx(context.Background(), n, body))
}

// ForDynamicCtx is ForDynamic with cooperative cancellation between
// items and panic isolation: a canceled call stops dispatching, finishes
// the in-flight items, and returns ctx.Err(); a worker panic surfaces as
// a *PanicError.
func ForDynamicCtx(ctx context.Context, n int, body func(i int)) error {
	if n <= 0 {
		return ctx.Err()
	}
	ranges := make([]Range, n)
	for i := range ranges {
		ranges[i] = Range{Lo: i, Hi: i + 1}
	}
	return exec(ctx, n, Workers(n), ranges, func(_ int, r Range) { body(r.Lo) })
}

// ChunkStreams derives one child RNG stream per chunk from parent, in
// chunk order. The derivation consumes exactly k values from parent, so
// the mapping from chunk index to stream depends only on (parent state,
// k) — the property the checkpoint/resume machinery relies on to re-run
// an arbitrary subset of chunks bit-identically.
func ChunkStreams(parent *rng.Rand, k int) []*rng.Rand {
	streams := make([]*rng.Rand, k)
	for i := range streams {
		streams[i] = parent.Split()
	}
	return streams
}

// ForRangesCtx runs body once per listed range across the available
// workers, checking ctx between ranges. The ci argument is the index
// into ranges, so a caller that pre-derived per-range state (RNG
// streams, accumulators) can address it directly. This is the primitive
// the resumable coverage study uses to execute exactly the chunks a
// checkpoint says are still missing.
func ForRangesCtx(ctx context.Context, ranges []Range, body func(ci int, r Range)) error {
	return exec(ctx, sumItems(ranges), Workers(len(ranges)), ranges, body)
}
