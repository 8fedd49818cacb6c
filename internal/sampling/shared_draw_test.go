package sampling

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"nodevar/internal/checkpoint"
)

// The shared draw's contract: a pass scoring several variants against one
// replicate stream returns, for every variant, exactly the points of a
// separate single-variant study with the same seed — widths included.
func TestSharedDrawMatchesSeparateStudies(t *testing.T) {
	ctx := context.Background()
	shapes := []PilotShape{PilotNormal, PilotOutliers, PilotBimodal, PilotSkewed}
	sizes := []int{5, 16, 50}
	const replicates = 1500
	for _, seed := range []uint64{2015, 7, 11} {
		// t vs z on the LRZ-like pilot.
		cfg := defaultCoverageConfig()
		cfg.Seed = seed
		cfg.Replicates = replicates
		tCfg, zCfg := cfg, cfg
		zCfg.UseZ = true
		tWant, err := CoverageStudy(tCfg)
		if err != nil {
			t.Fatal(err)
		}
		zWant, err := CoverageStudy(zCfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := coverageVariants(ctx, cfg, []variant{{pilot: cfg.Pilot}, {pilot: cfg.Pilot, useZ: true}})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, [][]CoveragePoint{tWant, zWant}) {
			t.Errorf("seed %d: shared t/z points differ from separate studies:\n%+v\nwant\n%+v", seed, got, [][]CoveragePoint{tWant, zWant})
		}
		var cmpWant []IntervalComparison
		for i, p := range tWant {
			cmpWant = append(cmpWant, IntervalComparison{SampleSize: p.SampleSize, Level: p.Level,
				CoverageT: p.Coverage, CoverageZ: zWant[i].Coverage})
		}
		cmp, err := CompareIntervalsCtx(ctx, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(cmp, cmpWant) {
			t.Errorf("seed %d: CompareIntervalsCtx = %+v, want %+v", seed, cmp, cmpWant)
		}

		// Pilot shapes, the ablation's robustness shape.
		base := CoverageConfig{Population: 9216, SampleSizes: sizes, Levels: []float64{0.95},
			Replicates: replicates, Seed: seed}
		var vs []variant
		var shapeWant [][]CoveragePoint
		var robWant []RobustnessPoint
		for _, shape := range shapes {
			pilot, err := SyntheticPilot(shape, 600, 400, 0.025, seed)
			if err != nil {
				t.Fatal(err)
			}
			one := base
			one.Pilot = pilot
			pts, err := CoverageStudy(one)
			if err != nil {
				t.Fatal(err)
			}
			vs = append(vs, variant{pilot: pilot})
			shapeWant = append(shapeWant, pts)
			for _, p := range pts {
				robWant = append(robWant, RobustnessPoint{Shape: shape, SampleSize: p.SampleSize,
					Level: p.Level, Coverage: p.Coverage})
			}
		}
		shared, err := coverageVariants(ctx, base, vs)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(shared, shapeWant) {
			t.Errorf("seed %d: shared shape points differ from separate studies", seed)
		}
		rob, err := RobustnessStudy(ctx, shapes, sizes, 0.95, 600, 9216, replicates, seed)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rob, robWant) {
			t.Errorf("seed %d: RobustnessStudy = %+v, want %+v", seed, rob, robWant)
		}
	}
}

// The draw consumes len(Pilot) in its index and multinomial draws, so
// variants of different pilot lengths cannot share it.
func TestSharedDrawRejectsUnequalPilots(t *testing.T) {
	cfg := defaultCoverageConfig()
	short := cfg.Pilot[:len(cfg.Pilot)-1]
	for _, vs := range [][]variant{
		{{pilot: cfg.Pilot}, {pilot: short}},
		{{pilot: short, useZ: true}, {pilot: cfg.Pilot}},
	} {
		if _, err := coverageVariants(context.Background(), cfg, vs); err == nil {
			t.Errorf("pilots of %d and %d nodes accepted", len(vs[0].pilot), len(vs[1].pilot))
		}
	}
	if _, err := coverageVariants(context.Background(), cfg, nil); err == nil {
		t.Error("a pass with no variants accepted")
	}
}

// A shared pass checkpoints like a single study: resuming from an
// envelope it emitted finishes bit-identical to an uninterrupted pass,
// and its envelope does not resume a single-variant study.
func TestSharedDrawResume(t *testing.T) {
	cfg := defaultCoverageConfig()
	cfg.Replicates = 1600
	cfg.Chunks = 16
	cfg.CheckpointEvery = 2
	vs := []variant{{pilot: cfg.Pilot}, {pilot: cfg.Pilot, useZ: true}}
	ref, err := coverageVariants(context.Background(), cfg, vs)
	if err != nil {
		t.Fatal(err)
	}
	var last []byte
	ctx, cancel := context.WithCancel(context.Background())
	first := cfg
	first.OnCheckpoint = func(env []byte) error { last = append([]byte(nil), env...); return nil }
	first.OnChunk = func(done, total int) {
		if done == 5 {
			cancel()
		}
	}
	if _, err := coverageVariants(ctx, first, vs); !errors.Is(err, context.Canceled) {
		t.Fatalf("first life err = %v, want context.Canceled", err)
	}
	second := cfg
	second.ResumeData = last
	got, err := coverageVariants(context.Background(), second, vs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ref) {
		t.Error("resumed shared pass differs from an uninterrupted one")
	}
	if _, err := CoverageStudy(second); !errors.Is(err, checkpoint.ErrMismatch) {
		t.Errorf("single study resumed from a shared-pass envelope: err = %v, want ErrMismatch", err)
	}
}
