package dist

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"

	"nodevar/internal/checkpoint"
	"nodevar/internal/sampling"
)

// Worker HTTP endpoints. The job protocol is deliberately small: one
// POST that streams NDJSON frames back, one health probe.
const (
	PathCoverage = "/worker/v1/coverage"
	PathHealthz  = "/worker/v1/healthz"
)

// maxJobBytes caps a job envelope. The largest legitimate field is the
// pilot dataset (the serving layer caps it at 65536 float64s, ~1.5MB of
// JSON) plus a resume checkpoint envelope; 16MB is generous headroom,
// anything larger is hostile or confused.
const maxJobBytes = 16 << 20

// defaultCheckpointEvery is the streamed-progress cadence in completed
// chunks: what a Frontend requests unless configured otherwise, and
// what a worker uses for a job envelope that names none.
const defaultCheckpointEvery = 4

// Decoder guards mirroring the serving layer's request-size bounds:
// these are the axes that buy CPU or memory on a worker, so a job
// exceeding them is rejected before any work starts.
const (
	maxJobPilot       = 1 << 20
	maxJobSampleSizes = 1024
	maxJobLevels      = 1024
	maxJobChunks      = 1 << 16
)

// JobRequest is the coverage-job envelope the frontend POSTs to a
// worker. It carries the full study configuration (a worker is
// stateless between jobs), the frontend-computed provenance stamps the
// worker re-verifies, and optionally the last streamed checkpoint
// envelope of a previous life of the same study.
type JobRequest struct {
	// JobID is the idempotency key, which must equal
	// JobKey(Seed, Fingerprint); a worker answers a repeated JobID from
	// its completed-result cache.
	JobID string `json:"job_id"`
	// Seed and Fingerprint are the study's provenance pair. Fingerprint
	// is the %016x rendering of CoverageConfig.Fingerprint() and is
	// recomputed and verified by the worker, so a corrupted or
	// mislabeled job can never poison the fleet-wide singleflight
	// identity.
	Seed        uint64 `json:"seed"`
	Fingerprint string `json:"fingerprint"`

	Pilot           []float64 `json:"pilot"`
	Population      int       `json:"population"`
	SampleSizes     []int     `json:"sample_sizes"`
	Levels          []float64 `json:"levels"`
	Replicates      int       `json:"replicates"`
	Chunks          int       `json:"chunks"`
	UseZ            bool      `json:"use_z,omitempty"`
	CheckpointEvery int       `json:"checkpoint_every,omitempty"`

	// Resume, when non-empty, is a checkpoint envelope (the bytes
	// internal/checkpoint Encode produced, streamed from a previous
	// worker) to resume from. The decoder verifies its kind, seed and
	// fingerprint stamps before the study starts.
	Resume []byte `json:"resume,omitempty"`
}

// Frame types of the worker's NDJSON response stream.
const (
	FrameCheckpoint = "checkpoint"
	FrameResult     = "result"
	FrameError      = "error"
)

// Frame is one line of the worker's response stream: zero or more
// checkpoint frames carrying progress envelopes, terminated by exactly
// one result or error frame.
type Frame struct {
	Type string `json:"type"`
	// Done/Total report completed chunks on checkpoint frames.
	Done  int `json:"done,omitempty"`
	Total int `json:"total,omitempty"`
	// Checkpoint is the progress envelope (base64 in the JSON encoding);
	// feeding it to CoverageConfig.ResumeData elsewhere resumes the
	// study byte-identically.
	Checkpoint []byte `json:"checkpoint,omitempty"`
	// Points is the final study output on result frames.
	Points []Point `json:"points,omitempty"`
	// Cached marks a result replayed from the worker's idempotent
	// completed-job cache rather than recomputed.
	Cached bool `json:"cached,omitempty"`
	// Error carries the failure on error frames.
	Error string `json:"error,omitempty"`
}

// Point mirrors sampling.CoveragePoint with stable JSON field names.
// float64 values survive the JSON round trip exactly (Go emits the
// shortest representation that parses back to the same bits), which is
// what keeps remote results Float64bits-identical to local ones.
type Point struct {
	SampleSize   int     `json:"n"`
	Level        float64 `json:"level"`
	Coverage     float64 `json:"coverage"`
	MeanRelWidth float64 `json:"mean_rel_width"`
	Replicates   int     `json:"replicates"`
}

// ToPoints converts wire points to sampling points.
func ToPoints(ps []Point) []sampling.CoveragePoint {
	out := make([]sampling.CoveragePoint, len(ps))
	for i, p := range ps {
		out[i] = sampling.CoveragePoint{
			SampleSize:   p.SampleSize,
			Level:        p.Level,
			Coverage:     p.Coverage,
			MeanRelWidth: p.MeanRelWidth,
			Replicates:   p.Replicates,
		}
	}
	return out
}

// FromPoints converts sampling points to wire points.
func FromPoints(ps []sampling.CoveragePoint) []Point {
	out := make([]Point, len(ps))
	for i, p := range ps {
		out[i] = Point{
			SampleSize:   p.SampleSize,
			Level:        p.Level,
			Coverage:     p.Coverage,
			MeanRelWidth: p.MeanRelWidth,
			Replicates:   p.Replicates,
		}
	}
	return out
}

// NewJobRequest builds the envelope for cfg with the given resume state.
// cfg must already be normalized (Chunks pinned); the provenance stamps
// are computed here so frontend and worker always agree on the digest.
func NewJobRequest(cfg sampling.CoverageConfig, checkpointEvery int, resume []byte) JobRequest {
	fp := cfg.Fingerprint()
	return JobRequest{
		JobID:           JobKey(cfg.Seed, fp),
		Seed:            cfg.Seed,
		Fingerprint:     fmt.Sprintf("%016x", fp),
		Pilot:           cfg.Pilot,
		Population:      cfg.Population,
		SampleSizes:     cfg.SampleSizes,
		Levels:          cfg.Levels,
		Replicates:      cfg.Replicates,
		Chunks:          cfg.Chunks,
		UseZ:            cfg.UseZ,
		CheckpointEvery: checkpointEvery,
		Resume:          resume,
	}
}

// Config converts the envelope into a runnable study configuration
// (runtime-only fields — hooks, resume wiring — are the worker's to
// set).
func (j JobRequest) Config() sampling.CoverageConfig {
	return sampling.CoverageConfig{
		Pilot:           j.Pilot,
		Population:      j.Population,
		SampleSizes:     j.SampleSizes,
		Levels:          j.Levels,
		Replicates:      j.Replicates,
		Seed:            j.Seed,
		Chunks:          j.Chunks,
		UseZ:            j.UseZ,
		CheckpointEvery: j.CheckpointEvery,
	}
}

// DecodeJobRequest strictly parses and validates a job envelope from r.
// Every failure is a clean error the worker maps to a 400 — malformed
// JSON, out-of-bound shapes, NaN/Inf values, a fingerprint or job key
// that does not match the configuration, or a resume envelope that is
// corrupt or belongs to a different study (including a stale checkpoint
// kind from an older study formulation). A job that decodes cleanly is
// safe to run and cache under its JobID: the decoder re-derives every
// identity stamp from the configuration itself, so no request can
// register a result under someone else's key.
func DecodeJobRequest(r io.Reader) (JobRequest, sampling.CoverageConfig, error) {
	var j JobRequest
	dec := json.NewDecoder(io.LimitReader(r, maxJobBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&j); err != nil {
		return j, sampling.CoverageConfig{}, fmt.Errorf("dist: decoding job: %w", err)
	}
	if dec.More() {
		return j, sampling.CoverageConfig{}, errors.New("dist: trailing data after job envelope")
	}
	cfg, err := j.check()
	return j, cfg, err
}

// check validates the envelope's shapes, values and identity stamps and
// returns the runnable study configuration. It is the post-parse half
// of DecodeJobRequest; the NaN/Inf guards are unreachable through
// strict JSON (which cannot encode them) but hold the contract for any
// future envelope transport that can.
func (j JobRequest) check() (sampling.CoverageConfig, error) {
	switch {
	case len(j.Pilot) > maxJobPilot:
		return sampling.CoverageConfig{}, fmt.Errorf("dist: pilot of %d nodes exceeds %d", len(j.Pilot), maxJobPilot)
	case len(j.SampleSizes) > maxJobSampleSizes:
		return sampling.CoverageConfig{}, fmt.Errorf("dist: %d sample sizes exceed %d", len(j.SampleSizes), maxJobSampleSizes)
	case len(j.Levels) > maxJobLevels:
		return sampling.CoverageConfig{}, fmt.Errorf("dist: %d levels exceed %d", len(j.Levels), maxJobLevels)
	case j.Chunks < 1 || j.Chunks > maxJobChunks:
		return sampling.CoverageConfig{}, fmt.Errorf("dist: chunks %d outside [1, %d]", j.Chunks, maxJobChunks)
	case j.CheckpointEvery < 0:
		return sampling.CoverageConfig{}, fmt.Errorf("dist: checkpoint_every %d negative", j.CheckpointEvery)
	}
	// The study validates levels are in (0,1) — which excludes NaN — but
	// pilot values are free-form there, so scan them here: a NaN or Inf
	// watt reading must be rejected at the boundary, not propagated into
	// every replicate of a cached fleet-wide result.
	for i, v := range j.Pilot {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return sampling.CoverageConfig{}, fmt.Errorf("dist: pilot[%d] is %v", i, v)
		}
	}
	for i, v := range j.Levels {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return sampling.CoverageConfig{}, fmt.Errorf("dist: levels[%d] is %v", i, v)
		}
	}

	cfg := j.Config()
	if err := cfg.Validate(); err != nil {
		return sampling.CoverageConfig{}, err
	}

	// Identity stamps: the fingerprint the frontend computed must match
	// the configuration that arrived, and the job key must be derived
	// from that same pair.
	fp := cfg.Fingerprint()
	wantFP, err := strconv.ParseUint(j.Fingerprint, 16, 64)
	if err != nil {
		return sampling.CoverageConfig{}, fmt.Errorf("dist: fingerprint %q is not a 64-bit hex digest", j.Fingerprint)
	}
	if wantFP != fp {
		return sampling.CoverageConfig{}, fmt.Errorf("dist: fingerprint %s does not match the job configuration (%016x)", j.Fingerprint, fp)
	}
	if want := JobKey(j.Seed, fp); j.JobID != want {
		return sampling.CoverageConfig{}, fmt.Errorf("dist: job_id %q does not match the study identity %q", j.JobID, want)
	}

	// A resume envelope must already belong to this exact study: wrong
	// kind (stale formulation), wrong seed/fingerprint, or corruption
	// all refuse here, before any compute.
	if len(j.Resume) > 0 {
		var probe json.RawMessage
		if err := checkpoint.Decode(j.Resume, sampling.CoverageCheckpointKind, j.Seed, fp, &probe); err != nil {
			return sampling.CoverageConfig{}, fmt.Errorf("dist: resume envelope rejected: %w", err)
		}
	}
	return cfg, nil
}
