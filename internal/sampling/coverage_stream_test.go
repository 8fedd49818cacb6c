package sampling

import (
	"context"
	"errors"
	"math"
	"testing"

	"nodevar/internal/checkpoint"
)

// TestCoverageStudyStreamedResumeByteIdentical is the transport-level
// resume contract the distributed engine rides on: a study that streams
// progress envelopes through OnCheckpoint, dies mid-run, and is resumed
// elsewhere from the last streamed envelope (ResumeData, no filesystem
// involved) finishes with Float64bits-identical output to an
// uninterrupted single-process run.
func TestCoverageStudyStreamedResumeByteIdentical(t *testing.T) {
	for _, seed := range []uint64{1, 7, 2015, 90125} {
		cfg := defaultCoverageConfig()
		cfg.Seed = seed
		cfg.Replicates = 1600
		cfg.Chunks = 16
		cfg.CheckpointEvery = 2

		ref, err := CoverageStudy(cfg)
		if err != nil {
			t.Fatalf("seed %d: reference: %v", seed, err)
		}

		// First life: stream envelopes, die (cancel) after a few chunks.
		var frames [][]byte
		ctx, cancel := context.WithCancel(context.Background())
		first := cfg
		first.OnCheckpoint = func(env []byte) error {
			frames = append(frames, append([]byte(nil), env...))
			return nil
		}
		first.OnChunk = func(done, total int) {
			if done == 5 {
				cancel()
			}
		}
		if _, err := CoverageStudyCtx(ctx, first); !errors.Is(err, context.Canceled) {
			t.Fatalf("seed %d: first life err = %v, want context.Canceled", seed, err)
		}
		if len(frames) == 0 {
			t.Fatalf("seed %d: no checkpoint frames streamed", seed)
		}

		// Second life: resume from the last streamed envelope only.
		second := cfg
		second.ResumeData = frames[len(frames)-1]
		executed := 0
		second.OnChunk = func(done, total int) { executed++ }
		got, err := CoverageStudyCtx(context.Background(), second)
		if err != nil {
			t.Fatalf("seed %d: resume from streamed envelope: %v", seed, err)
		}
		if executed >= cfg.Chunks {
			t.Fatalf("seed %d: resume executed all %d chunks; the envelope carried no progress", seed, executed)
		}
		if len(got) != len(ref) {
			t.Fatalf("seed %d: %d points, want %d", seed, len(got), len(ref))
		}
		for i := range ref {
			if got[i].SampleSize != ref[i].SampleSize || got[i].Level != ref[i].Level ||
				got[i].Replicates != ref[i].Replicates ||
				math.Float64bits(got[i].Coverage) != math.Float64bits(ref[i].Coverage) ||
				math.Float64bits(got[i].MeanRelWidth) != math.Float64bits(ref[i].MeanRelWidth) {
				t.Fatalf("seed %d: point %d differs after streamed resume:\n got %+v\nwant %+v",
					seed, i, got[i], ref[i])
			}
		}
	}
}

// TestCoverageStudyResumeDataRejectsMismatch: a streamed envelope from a
// different study (wrong seed here) must refuse to resume.
func TestCoverageStudyResumeDataRejectsMismatch(t *testing.T) {
	cfg := defaultCoverageConfig()
	cfg.Replicates = 800
	cfg.Chunks = 8
	cfg.CheckpointEvery = 1

	var frames [][]byte
	ctx, cancel := context.WithCancel(context.Background())
	first := cfg
	first.OnCheckpoint = func(env []byte) error {
		frames = append(frames, append([]byte(nil), env...))
		return nil
	}
	first.OnChunk = func(done, total int) {
		if done == 2 {
			cancel()
		}
	}
	if _, err := CoverageStudyCtx(ctx, first); !errors.Is(err, context.Canceled) {
		t.Fatalf("setup err = %v, want context.Canceled", err)
	}
	if len(frames) == 0 {
		t.Fatal("no frames streamed")
	}

	other := cfg
	other.Seed = cfg.Seed + 1
	other.ResumeData = frames[len(frames)-1]
	if _, err := CoverageStudyCtx(context.Background(), other); !errors.Is(err, checkpoint.ErrMismatch) {
		t.Fatalf("resume with foreign envelope: err = %v, want checkpoint.ErrMismatch", err)
	}
}
