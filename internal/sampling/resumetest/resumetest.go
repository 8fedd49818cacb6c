// Package resumetest is the interrupt/resume harness for the bootstrap
// coverage study: it runs one scenario — a clean reference study, then
// the same study repeatedly canceled at seeded random chunk counts and
// resumed from its checkpoint until it completes — and returns a
// deterministic Outcome. The invariant the test suite asserts over it:
// no matter where the interruptions land, the final result is
// byte-identical to the uninterrupted run.
//
// It is deliberately shaped like internal/faults/chaostest: scenarios
// reproduce from a single integer seed, so a CI failure is a one-line
// repro.
package resumetest

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"

	"nodevar/internal/checkpoint"
	"nodevar/internal/rng"
	"nodevar/internal/sampling"
)

// Scenario is one interrupt/resume experiment.
type Scenario struct {
	// Config is the study under test. Its ResumeData, OnCheckpoint and
	// OnChunk fields are managed by the harness and ignored if set.
	Config sampling.CoverageConfig
	// Seed drives the harness's own randomness: where each round's
	// cancellation lands.
	Seed uint64
	// MaxRounds bounds the interrupt/resume loop (default: chunk count
	// plus two; every round completes at least one new chunk, so the
	// study always finishes within that bound).
	MaxRounds int
}

// Outcome is everything a scenario produced.
type Outcome struct {
	// Reference is the uninterrupted run's result.
	Reference []sampling.CoveragePoint
	// Final is the result of the run that completed after resumption.
	Final []sampling.CoveragePoint
	// Rounds is how many runs were launched, including the completing one.
	Rounds int
	// Interrupts is how many of those runs were canceled mid-study.
	Interrupts int
}

// Identical reports whether Final reproduced Reference exactly — every
// float64 bit-for-bit equal, not merely close.
func (o Outcome) Identical() bool {
	if len(o.Final) != len(o.Reference) {
		return false
	}
	for i := range o.Final {
		if o.Final[i] != o.Reference[i] {
			return false
		}
	}
	return true
}

// Run executes the scenario, checkpointing into a file in dir the way
// the -checkpoint commands do: each round resumes from the bytes
// checkpoint.ReadFile returns and persists progress with
// checkpoint.WriteFileAtomic. It returns an error if any run fails for a
// reason other than the harness's own cancellation, or if the study does
// not complete within MaxRounds.
func Run(dir string, sc Scenario) (Outcome, error) {
	var out Outcome
	base := sc.Config
	base.ResumeData, base.OnCheckpoint, base.OnChunk = nil, nil, nil

	ref, err := sampling.CoverageStudy(base)
	if err != nil {
		return out, fmt.Errorf("resumetest: reference run: %w", err)
	}
	out.Reference = ref

	chunks := base.Chunks
	if chunks <= 0 {
		chunks = 64
	}
	if chunks > base.Replicates {
		chunks = base.Replicates
	}
	maxRounds := sc.MaxRounds
	if maxRounds <= 0 {
		maxRounds = chunks + 2
	}

	hr := rng.New(sc.Seed)
	ckPath := filepath.Join(dir, "coverage.ckpt")
	for round := 0; round < maxRounds; round++ {
		out.Rounds++
		runCfg := base
		if runCfg.ResumeData, err = checkpoint.ReadFile(ckPath); err != nil {
			return out, fmt.Errorf("resumetest: round %d: %w", round, err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		runCfg.OnCheckpoint = func(env []byte) error {
			return checkpoint.WriteFileAtomic(ckPath, env)
		}
		// Cancel after 1..chunks newly completed chunks: at least one, so
		// every round makes progress; possibly more than remain, in which
		// case the run completes untouched.
		cancelAfter := 1 + hr.Intn(chunks)
		newDone := 0
		runCfg.OnChunk = func(done, total int) {
			newDone++ // serialized: OnChunk runs under the study's lock
			if newDone >= cancelAfter {
				cancel()
			}
		}
		pts, err := sampling.CoverageStudyCtx(ctx, runCfg)
		cancel()
		switch {
		case err == nil:
			out.Final = pts
			return out, nil
		case errors.Is(err, context.Canceled):
			out.Interrupts++
		default:
			return out, fmt.Errorf("resumetest: round %d: %w", round, err)
		}
	}
	return out, fmt.Errorf("resumetest: study did not complete within %d rounds", maxRounds)
}
