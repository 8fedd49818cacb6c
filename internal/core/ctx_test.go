package core

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"nodevar/internal/obs"
	"nodevar/internal/parallel"
	"nodevar/internal/systems"
)

// withTestRunner installs a throwaway experiment for the duration of one
// test. Safe because the registry is only mutated before the test body's
// concurrency starts.
func withTestRunner(t *testing.T, id ID, r Runner) {
	t.Helper()
	if _, exists := registry[id]; exists {
		t.Fatalf("test runner id %q collides with a real experiment", id)
	}
	registry[id] = r
	t.Cleanup(func() { delete(registry, id) })
}

func TestRunCtxRecoversRunnerPanic(t *testing.T) {
	withTestRunner(t, "panic-direct", func(ctx context.Context, o Options) (Result, error) {
		panic("direct runner explosion")
	})
	res, err := RunCtx(context.Background(), "panic-direct", Options{})
	if res != nil {
		t.Fatal("panicking runner returned a result")
	}
	if err == nil || !strings.Contains(err.Error(), "direct runner explosion") {
		t.Fatalf("err = %v, want the panic value surfaced", err)
	}
}

func TestRunCtxRecoversWorkerPanic(t *testing.T) {
	// A panic inside a void parallel call is isolated by the worker,
	// re-raised on the runner goroutine as *PanicError, and
	// RunCtx converts it to an error that still unwraps to the
	// PanicError with its worker stack.
	withTestRunner(t, "panic-worker", func(ctx context.Context, o Options) (Result, error) {
		parallel.ForDynamic(64, func(i int) {
			if i == 13 {
				panic("worker explosion")
			}
		})
		return nil, nil
	})
	_, err := RunCtx(context.Background(), "panic-worker", Options{})
	var pe *parallel.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want to unwrap to *PanicError", err)
	}
	if pe.Value != "worker explosion" || len(pe.Stack) == 0 {
		t.Fatalf("PanicError lost its payload: %+v", pe)
	}
}

func TestRunAllCtxCollectsAllFailures(t *testing.T) {
	withTestRunner(t, "aa-fail", func(ctx context.Context, o Options) (Result, error) {
		return nil, errors.New("first failure")
	})
	withTestRunner(t, "ab-fail", func(ctx context.Context, o Options) (Result, error) {
		return nil, errors.New("second failure")
	})
	systems.ResetCalibrationCache()
	results, err := RunAllCtx(context.Background(), Options{Replicates: 200, MeasurementTrials: 8, TraceSamples: 64})
	var es ExperimentErrors
	if !errors.As(err, &es) {
		t.Fatalf("err = %T %v, want ExperimentErrors", err, err)
	}
	if len(es) != 2 {
		t.Fatalf("collected %d failures, want 2: %v", len(es), es)
	}
	msg := es.Error()
	if !strings.Contains(msg, "first failure") || !strings.Contains(msg, "second failure") {
		t.Fatalf("summary hides a failure: %q", msg)
	}
	// The healthy experiments still produced results.
	ok := 0
	for _, r := range results {
		if r != nil {
			ok++
		}
	}
	if ok == 0 {
		t.Fatal("no sibling experiment survived two injected failures")
	}
}

func TestRunAllCtxCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunAllCtx(ctx, Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestFigure3CheckpointOptionsThread: Options.OnCheckpoint receives the
// Figure 3 study's envelopes, and Options.ResumeData resumes from them —
// a canceled run's envelope finishes to the uninterrupted bytes, and the
// complete run's final envelope resumes every chunk without recomputing.
func TestFigure3CheckpointOptionsThread(t *testing.T) {
	systems.ResetCalibrationCache()
	render := func(res Result) string {
		var b strings.Builder
		if err := res.Render(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	var last []byte
	opts := Options{
		Replicates: 4000,
		OnCheckpoint: func(env []byte) error {
			last = append([]byte(nil), env...)
			return nil
		},
	}
	ref, err := RunCtx(context.Background(), Figure3, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(last) == 0 {
		t.Fatal("figure3 streamed no checkpoint envelope")
	}
	full := last

	resumed := obs.NewCounter("sampling.bootstrap.chunks_resumed")
	before := resumed.Value()
	res, err := RunCtx(context.Background(), Figure3, Options{Replicates: 4000, ResumeData: full})
	if err != nil {
		t.Fatalf("resumed figure3: %v", err)
	}
	if got := resumed.Value() - before; got != 64 {
		t.Errorf("resume from the final envelope restored %d chunks, want all 64", got)
	}
	if render(res) != render(ref) {
		t.Error("figure3 resumed from its envelope renders differently")
	}

	// A run canceled at its first envelope flushes its finished chunks,
	// and resuming from them reproduces the uninterrupted bytes.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	last = nil
	canceled := opts
	canceled.OnCheckpoint = func(env []byte) error {
		last = append([]byte(nil), env...)
		cancel()
		return nil
	}
	if _, err := RunCtx(ctx, Figure3, canceled); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled figure3: err = %v, want context.Canceled", err)
	}
	before = resumed.Value()
	res, err = RunCtx(context.Background(), Figure3, Options{Replicates: 4000, ResumeData: last})
	if err != nil {
		t.Fatalf("figure3 resumed after cancel: %v", err)
	}
	if got := resumed.Value() - before; got < 1 || got >= 64 {
		t.Errorf("resume after cancel restored %d chunks, want a partial set", got)
	}
	if render(res) != render(ref) {
		t.Error("figure3 resumed after cancel renders differently")
	}
}

// TestAblationCancelDuringRobustnessPhase: a cancel that lands while the
// ablation's robustness pass is running stops that pass before it has
// drawn all its replicates, instead of finishing it and the phases after
// it.
func TestAblationCancelDuringRobustnessPhase(t *testing.T) {
	const passReps = 10000 // each ablation pass runs Replicates/2
	studies := obs.NewCounter("sampling.bootstrap.studies")
	replicates := obs.NewCounter("sampling.bootstrap.replicates")
	baseStudies, baseReps := studies.Value(), replicates.Value()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// The t-vs-z table is one replicate loop, so the second loop to start
	// is the robustness pass.
	go func() {
		for studies.Value() < baseStudies+2 {
			if ctx.Err() != nil {
				return
			}
			time.Sleep(100 * time.Microsecond)
		}
		cancel()
	}()
	_, err := runAblation(ctx, Options{Seed: 1, Replicates: 2 * passReps})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The t-vs-z pass drew all of its replicates; the robustness pass
	// must have stopped short of its own.
	if got := replicates.Value() - baseReps - passReps; got < 0 || got >= passReps {
		t.Errorf("robustness pass drew %d replicates, want in [0, %d): the cancel should stop it mid-pass", got, passReps)
	}
}
