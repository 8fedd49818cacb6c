package parallel

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"nodevar/internal/rng"
)

func TestForDynamicCtxCanceledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var calls int64
	err := ForDynamicCtx(ctx, 1000, func(i int) { atomic.AddInt64(&calls, 1) })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if calls != 0 {
		t.Errorf("%d body calls after pre-canceled context, want 0", calls)
	}
}

func TestForRangesCtxCancelMidRunNeverTearsChunks(t *testing.T) {
	// Cancel partway through; every index either ran exactly once or not
	// at all, and whole chunks are the unit — a started chunk finishes.
	const n = 10000
	ranges := SplitRange(n, 64)
	ctx, cancel := context.WithCancel(context.Background())
	var counts [n]int64
	var seen atomic.Int64
	err := ForRangesCtx(ctx, ranges, func(_ int, r Range) {
		for i := r.Lo; i < r.Hi; i++ {
			// Every index from the 50th on cancels (cancel is idempotent):
			// with == 50, the worker that drew 50 could be preempted before
			// cancelling while the other worker ran every remaining chunk.
			if seen.Add(1) >= 50 {
				cancel()
			}
			atomic.AddInt64(&counts[i], 1)
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	ran := 0
	for i, c := range counts {
		if c > 1 {
			t.Fatalf("index %d ran %d times", i, c)
		}
		ran += int(c)
	}
	if ran == 0 || ran == n {
		t.Fatalf("ran %d of %d indices; want a genuine partial run", ran, n)
	}
	// Chunk atomicity: within each scheduled chunk, the indices that ran
	// form complete chunks, never a prefix of one.
	for _, r := range ranges {
		chunkRan := 0
		for i := r.Lo; i < r.Hi; i++ {
			chunkRan += int(counts[i])
		}
		if chunkRan != 0 && chunkRan != r.Hi-r.Lo {
			t.Fatalf("chunk %+v partially ran (%d of %d): torn chunk", r, chunkRan, r.Hi-r.Lo)
		}
	}
}

func TestWorkerPanicSurfacesAsPanicError(t *testing.T) {
	err := ForDynamicCtx(context.Background(), 100, func(i int) {
		if i == 37 {
			panic("boom at 37")
		}
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v (%T), want *PanicError", err, err)
	}
	if pe.Value != "boom at 37" {
		t.Errorf("PanicError.Value = %v, want boom at 37", pe.Value)
	}
	if len(pe.Stack) == 0 || !strings.Contains(string(pe.Stack), "parallel") {
		t.Errorf("PanicError.Stack missing or unhelpful: %q", pe.Stack)
	}
	if !strings.Contains(pe.Error(), "boom at 37") {
		t.Errorf("Error() = %q, want it to mention the panic value", pe.Error())
	}
}

func TestWorkerPanicCountsMetricAndAborts(t *testing.T) {
	before := mParPanics.Value()
	var after atomic.Int64
	err := ForDynamicCtx(context.Background(), 64, func(i int) {
		if i == 0 {
			panic("first item dies")
		}
		// Items take real time, as in every caller: with empty items a
		// second worker can finish all 63 while the first is still
		// unwinding its panic, and there is nothing left to abandon.
		time.Sleep(20 * time.Microsecond)
		after.Add(1)
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if got := mParPanics.Value() - before; got < 1 {
		t.Errorf("panic metric advanced by %d, want >= 1", got)
	}
	// Remaining work is abandoned: strictly fewer than all other items ran.
	if after.Load() >= 63 {
		t.Errorf("%d items ran after the panic; abort did not stop scheduling", after.Load())
	}
}

func TestForDynamicRePanicsWithPanicError(t *testing.T) {
	defer func() {
		v := recover()
		pe, ok := v.(*PanicError)
		if !ok {
			t.Fatalf("recovered %v (%T), want *PanicError", v, v)
		}
		if pe.Value != "boom at 3" {
			t.Errorf("PanicError.Value = %v", pe.Value)
		}
	}()
	ForDynamic(10, func(i int) {
		if i == 3 {
			panic("boom at 3")
		}
	})
	t.Fatal("ForDynamic returned instead of panicking")
}

func TestMetricsFlushedOnErrorPaths(t *testing.T) {
	// Wall/busy counters must be flushed even when the call fails early
	// (cancellation or panic), not only on success.
	wall0, busy0, calls0 := fParWall.Value(), fParBusy.Value(), mParCalls.Value()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_ = ForDynamicCtx(ctx, 1000, func(int) {})

	_ = ForDynamicCtx(context.Background(), 1000, func(i int) {
		if i == 0 {
			panic("metric flush check")
		}
	})

	if got := mParCalls.Value() - calls0; got != 2 {
		t.Errorf("calls advanced by %d, want 2", got)
	}
	if fParWall.Value() <= wall0 {
		t.Error("wall counter not flushed on error paths")
	}
	if fParBusy.Value() < busy0 {
		t.Error("busy counter went backwards")
	}
}

func TestForRangesCtxSubsetMatchesFullRun(t *testing.T) {
	// The resume primitive: running only a subset of chunks with streams
	// derived by ChunkStreams reproduces exactly the full run's values
	// for those chunks.
	const n, chunks = 1000, 16
	ranges := SplitRange(n, chunks)
	streams := ChunkStreams(rng.New(7), len(ranges))
	full := make([]float64, n)
	fullStreams := ChunkStreams(rng.New(7), len(ranges))
	if err := ForRangesCtx(context.Background(), ranges, func(ci int, r Range) {
		for i := r.Lo; i < r.Hi; i++ {
			full[i] = fullStreams[ci].Float64()
		}
	}); err != nil {
		t.Fatalf("full run: err = %v", err)
	}

	// Re-run only the odd-indexed chunks, as a resume would.
	var odd []Range
	var oddIdx []int
	for ci, r := range ranges {
		if ci%2 == 1 {
			odd = append(odd, r)
			oddIdx = append(oddIdx, ci)
		}
	}
	partial := make([]float64, n)
	err := ForRangesCtx(context.Background(), odd, func(ci int, r Range) {
		s := streams[oddIdx[ci]]
		for i := r.Lo; i < r.Hi; i++ {
			partial[i] = s.Float64()
		}
	})
	if err != nil {
		t.Fatalf("err = %v", err)
	}
	for _, ci := range oddIdx {
		r := ranges[ci]
		for i := r.Lo; i < r.Hi; i++ {
			if partial[i] != full[i] {
				t.Fatalf("resumed chunk %d diverged at index %d: %v != %v", ci, i, partial[i], full[i])
			}
		}
	}
}

func TestChunkStreamsDerivationIsPrefixStable(t *testing.T) {
	// Stream k of ChunkStreams(parent, m) must not depend on m beyond
	// k < m: the derivation is sequential splits, so a longer list is a
	// superset. Checkpoint fingerprints rely on this.
	a := ChunkStreams(rng.New(42), 4)
	b := ChunkStreams(rng.New(42), 8)
	for i := 0; i < 4; i++ {
		if a[i].Float64() != b[i].Float64() {
			t.Fatalf("stream %d differs between k=4 and k=8 derivations", i)
		}
	}
}

func TestForDynamicCtxCompletes(t *testing.T) {
	const n = 200
	var counts [n]int64
	if err := ForDynamicCtx(context.Background(), n, func(i int) { atomic.AddInt64(&counts[i], 1) }); err != nil {
		t.Fatalf("err = %v", err)
	}
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("index %d ran %d times", i, c)
		}
	}
}
