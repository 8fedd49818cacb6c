package sampling

import (
	"context"
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"nodevar/internal/checkpoint"
)

// ctxStudyConfig returns a 16-chunk study whose progress sink keeps the
// latest envelope in *last.
func ctxStudyConfig() (cfg CoverageConfig, last *[]byte) {
	cfg = defaultCoverageConfig()
	cfg.Replicates = 1600
	cfg.Chunks = 16
	last = new([]byte)
	cfg.OnCheckpoint = func(env []byte) error {
		*last = append([]byte(nil), env...)
		return nil
	}
	return cfg, last
}

func TestCoverageStudyCtxCanceledReturnsPartial(t *testing.T) {
	cfg, last := ctxStudyConfig()
	ctx, cancel := context.WithCancel(context.Background())
	cfg.OnChunk = func(done, total int) {
		if done == 3 {
			cancel()
		}
	}
	pts, err := CoverageStudyCtx(ctx, cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(pts) != len(cfg.SampleSizes)*len(cfg.Levels) {
		t.Fatalf("got %d partial points, want %d", len(pts), len(cfg.SampleSizes)*len(cfg.Levels))
	}
	for _, p := range pts {
		if p.Replicates <= 0 || p.Replicates >= cfg.Replicates {
			t.Fatalf("partial point claims %d replicates of %d; want a genuine partial count",
				p.Replicates, cfg.Replicates)
		}
		if p.Coverage < 0 || p.Coverage > 1 {
			t.Fatalf("partial coverage %v outside [0,1]", p.Coverage)
		}
	}

	// The flushed envelope must decode under the same config...
	var prog struct {
		Chunks int `json:"chunks"`
		Done   []struct {
			Ci int `json:"ci"`
		} `json:"done"`
	}
	if err := checkpoint.Decode(*last, CoverageCheckpointKind, cfg.Seed, cfg.Fingerprint(), &prog); err != nil {
		t.Fatalf("flushed checkpoint does not decode: %v", err)
	}
	if prog.Chunks != 16 || len(prog.Done) == 0 || len(prog.Done) >= 16 {
		t.Fatalf("checkpoint records %d/%d chunks; want a genuine partial set", len(prog.Done), prog.Chunks)
	}

	// ...and resuming it to completion matches an uninterrupted run.
	resumeCfg := cfg
	resumeCfg.OnChunk = nil
	resumeCfg.ResumeData = *last
	resumed, err := CoverageStudyCtx(context.Background(), resumeCfg)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	clean := cfg
	clean.OnCheckpoint, clean.OnChunk = nil, nil
	ref, err := CoverageStudy(clean)
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	for i := range ref {
		if resumed[i] != ref[i] {
			t.Fatalf("resumed point %d differs: %+v != %+v", i, resumed[i], ref[i])
		}
	}
}

func TestCoverageStudyResumeRejectsChangedConfig(t *testing.T) {
	cfg, last := ctxStudyConfig()
	ctx, cancel := context.WithCancel(context.Background())
	cfg.OnChunk = func(done, total int) {
		if done == 2 {
			cancel()
		}
	}
	if _, err := CoverageStudyCtx(ctx, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("setup run: err = %v, want context.Canceled", err)
	}

	changed := cfg
	changed.OnChunk = nil
	changed.ResumeData = *last
	changed.SampleSizes = append([]int{2}, cfg.SampleSizes...)
	_, err := CoverageStudyCtx(context.Background(), changed)
	if !errors.Is(err, checkpoint.ErrMismatch) {
		t.Fatalf("resume under changed config: err = %v, want checkpoint.ErrMismatch", err)
	}
}

// TestCoverageStudyResumeMissingCheckpointIsFreshStart: resuming from a
// checkpoint file that does not exist yet reads no bytes, and a study
// given no ResumeData is a fresh start with the uninterrupted output.
func TestCoverageStudyResumeMissingCheckpointIsFreshStart(t *testing.T) {
	cfg, _ := ctxStudyConfig()
	cfg.Replicates = 400
	data, err := checkpoint.ReadFile(filepath.Join(t.TempDir(), "absent.ckpt"))
	if err != nil {
		t.Fatalf("reading a missing checkpoint: %v", err)
	}
	cfg.ResumeData = data
	pts, err := CoverageStudyCtx(context.Background(), cfg)
	if err != nil {
		t.Fatalf("resume with no checkpoint file: %v", err)
	}
	clean := cfg
	clean.OnCheckpoint = nil
	ref, err := CoverageStudy(clean)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != len(ref) || pts[0].Replicates != cfg.Replicates {
		t.Fatalf("fresh-start resume produced %v", pts)
	}
	for i := range ref {
		if pts[i] != ref[i] {
			t.Fatalf("point %d differs from a plain run: %+v != %+v", i, pts[i], ref[i])
		}
	}
}

// TestCoverageStudySinkErrorFailsStudy: a progress sink that cannot take
// the envelope (a full disk, an unwritable -checkpoint directory) fails
// the study with the sink's error wrapped, rather than completing with
// progress silently lost.
func TestCoverageStudySinkErrorFailsStudy(t *testing.T) {
	cfg, _ := ctxStudyConfig()
	cfg.Replicates = 400
	errSink := errors.New("disk full")
	calls := 0
	cfg.OnCheckpoint = func([]byte) error {
		calls++
		return errSink
	}
	pts, err := CoverageStudyCtx(context.Background(), cfg)
	if !errors.Is(err, errSink) {
		t.Fatalf("err = %v, want the sink error wrapped", err)
	}
	if !strings.HasPrefix(err.Error(), "sampling: flushing checkpoint: ") {
		t.Errorf("err = %q, want the flushing-checkpoint prefix", err)
	}
	if pts != nil || calls == 0 {
		t.Errorf("failed study returned %d points after %d sink calls", len(pts), calls)
	}
}
