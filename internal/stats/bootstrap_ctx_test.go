package stats

import (
	"context"
	"errors"
	"testing"

	"nodevar/internal/rng"
)

func bootstrapSample() []float64 {
	r := rng.New(11)
	xs := make([]float64, 80)
	for i := range xs {
		xs[i] = r.Normal(100, 12)
	}
	return xs
}

func TestBootstrapCICtxMatchesLegacy(t *testing.T) {
	xs := bootstrapSample()
	mean := func(v []float64) float64 {
		var s float64
		for _, x := range v {
			s += x
		}
		return s / float64(len(v))
	}
	a, err := BootstrapCI(xs, mean, 2000, 0.95, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BootstrapCICtx(context.Background(), xs, mean, 2000, 0.95, 42)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("ctx variant diverged: %+v != %+v", a, b)
	}
}

func TestBootstrapCICtxCanceled(t *testing.T) {
	xs := bootstrapSample()
	mean := func(v []float64) float64 { return v[0] }

	// Pre-canceled: no replicates complete, zero interval.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	iv, err := BootstrapCICtx(ctx, xs, mean, 5000, 0.95, 42)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if iv != (Interval{}) {
		t.Fatalf("pre-canceled call returned interval %+v, want zero", iv)
	}

	// Canceled mid-run after enough replicates: partial interval plus the
	// error. Cancel from inside the statistic once past 100 evaluations.
	ctx2, cancel2 := context.WithCancel(context.Background())
	calls := 0
	counting := func(v []float64) float64 {
		calls++
		if calls == 400 {
			cancel2()
		}
		return v[0]
	}
	iv2, err := BootstrapCICtx(ctx2, xs, counting, 1<<20, 0.95, 42)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if iv2.Confidence != 0.95 || iv2.HalfWidth <= 0 {
		t.Fatalf("mid-run cancel returned %+v, want a usable partial interval", iv2)
	}
}
