package dist

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"time"

	"nodevar/internal/obs"
	"nodevar/internal/sampling"
)

// Frontend-side metrics. dist.jobs.rerouted and
// dist.jobs.degraded_local are the two counters the chaos harness
// asserts: a SIGKILLed worker shows up as at least one reroute, an
// all-dead fleet as degraded local compute — and in neither case as a
// 5xx.
var (
	mDispatched    = obs.NewCounter("dist.jobs.dispatched")
	mRemoteOK      = obs.NewCounter("dist.jobs.remote_ok")
	mRemoteCached  = obs.NewCounter("dist.jobs.remote_cached")
	mRerouted      = obs.NewCounter("dist.jobs.rerouted")
	mWorkerFailure = obs.NewCounter("dist.jobs.worker_failures")
	mDegraded      = obs.NewCounter("dist.jobs.degraded_local")
	mResumedFrames = obs.NewCounter("dist.frames.checkpoint")
)

// RejectedError is a worker's definitive refusal of a job (an HTTP 4xx
// from the job endpoint). It marks the job itself as unrunnable:
// re-routing to another worker cannot help, so the frontend propagates
// it instead of failing over.
type RejectedError struct {
	Status  int
	Message string
}

func (e *RejectedError) Error() string {
	return fmt.Sprintf("dist: worker rejected job (HTTP %d): %s", e.Status, e.Message)
}

// Config parameterizes a Frontend. Workers is required; everything else
// has production defaults.
type Config struct {
	// Workers are the worker base URLs (e.g. "http://10.0.0.7:9090").
	Workers []string
	// ProbeInterval is the health-probe cadence for live workers and the
	// initial reconnect backoff for down ones (the backoff doubles per
	// failed probe up to 15s, with ±25% jitter). Default 1s.
	ProbeInterval time.Duration
	// ProbeTimeout bounds one health probe. Default 500ms.
	ProbeTimeout time.Duration
	// CheckpointEvery is the progress-stream cadence (in completed
	// chunks) requested of workers. Lower is finer-grained failover at
	// slightly more stream traffic. Default 4.
	CheckpointEvery int
	// Seed drives the probe-jitter stream. Default 1.
	Seed uint64
	// Transport is the HTTP transport for worker traffic. Chaos
	// harnesses inject network faults here. Default
	// http.DefaultTransport.
	Transport http.RoundTripper
	// Log receives routing diagnostics. Default: discard.
	Log *slog.Logger
	// OnFrame, if set, observes every frame received from any worker
	// (test hook; called synchronously from the dispatch loop).
	OnFrame func(worker string, fr Frame)
}

// Frontend routes coverage studies onto the worker fleet and survives
// the fleet's failures. It is stateless with respect to studies: all
// routing state is derived from the configuration and the live-set, so
// any number of frontends can stand in front of the same workers.
type Frontend struct {
	cfg Config
	log *slog.Logger
	reg *registry
	// jobs is the streaming client (no global timeout: streams are
	// bounded by the caller's context).
	jobs *http.Client
}

// NewFrontend builds a Frontend over the given worker fleet.
func NewFrontend(cfg Config) (*Frontend, error) {
	if len(cfg.Workers) == 0 {
		return nil, errors.New("dist: no workers configured")
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = time.Second
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = 500 * time.Millisecond
	}
	if cfg.CheckpointEvery <= 0 {
		cfg.CheckpointEvery = defaultCheckpointEvery
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Transport == nil {
		cfg.Transport = http.DefaultTransport
	}
	if cfg.Log == nil {
		cfg.Log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	probeClient := &http.Client{Transport: cfg.Transport, Timeout: cfg.ProbeTimeout}
	f := &Frontend{
		cfg:  cfg,
		log:  cfg.Log,
		jobs: &http.Client{Transport: cfg.Transport},
		reg:  newRegistry(cfg.Workers, probeClient, cfg.ProbeInterval, cfg.Seed, cfg.Log),
	}
	return f, nil
}

// Start launches the health-probe loop; it runs until ctx is done.
func (f *Frontend) Start(ctx context.Context) {
	go f.reg.start(ctx)
}

// Coverage runs cfg on the fleet. It returns the study points, whether
// the result was computed in degraded mode (locally, because no worker
// could serve it), and an error only when the study itself cannot
// produce a result (invalid configuration, canceled context) — worker
// loss is handled inside, never surfaced as a failure.
//
// The journey of one job: hash its identity onto the ring, dispatch to
// the first live worker in preference order, collect streamed
// checkpoint frames; on any transport failure, mark the worker down and
// re-dispatch to the next live worker with the last streamed envelope
// as resume state (each worker is tried at most once); when no
// live workers remain, run the study in-process — resuming from
// whatever progress the fleet managed to stream before dying.
func (f *Frontend) Coverage(ctx context.Context, cfg sampling.CoverageConfig) ([]sampling.CoveragePoint, bool, error) {
	if cfg.Chunks <= 0 {
		// Pin the decomposition: remote and local execution must agree on
		// it, or failover would change the RNG streams.
		cfg.Chunks = 64
	}
	if err := cfg.Validate(); err != nil {
		return nil, false, err
	}
	key := JobKey(cfg.Seed, cfg.Fingerprint())

	var resume []byte
	attempts := 0
	for _, addr := range f.reg.sequence(key) {
		if !f.reg.live(addr) {
			continue
		}
		if attempts > 0 {
			mRerouted.Inc()
		}
		attempts++
		mDispatched.Inc()
		points, cached, lastCk, err := f.dispatch(ctx, addr, cfg, resume)
		if err == nil {
			mRemoteOK.Inc()
			if cached {
				mRemoteCached.Inc()
			}
			return points, false, nil
		}
		if ctx.Err() != nil {
			// The caller is gone; nothing we route can matter anymore.
			return nil, false, ctx.Err()
		}
		var rej *RejectedError
		if errors.As(err, &rej) {
			// The job, not the worker, is the problem.
			return nil, false, err
		}
		mWorkerFailure.Inc()
		if len(lastCk) > 0 {
			resume = lastCk
		}
		f.reg.markDown(addr, err.Error())
		f.log.Warn("dist: dispatch failed, failing over", "worker", addr, "job", key, "err", err,
			"resume_bytes", len(resume))
	}

	// Degraded mode: the fleet cannot serve this study right now, so the
	// frontend computes it in-process — from the last streamed progress,
	// if any worker got that far. Same seed, same chunks, same streams:
	// the answer is byte-identical, only the latency and the degraded
	// flag differ.
	mDegraded.Inc()
	f.log.Warn("dist: no live worker could serve job; computing locally", "job", key,
		"live_workers", f.reg.liveCount(), "resume_bytes", len(resume))
	cfg.ResumeData = resume
	points, err := sampling.CoverageStudyCtx(ctx, cfg)
	if err != nil {
		return nil, true, err
	}
	return points, true, nil
}

// dispatch sends one job to one worker and consumes its frame stream.
// It returns the final points on success, or the last checkpoint
// envelope received before the failure so the caller can resume the
// study elsewhere.
func (f *Frontend) dispatch(ctx context.Context, addr string, cfg sampling.CoverageConfig, resume []byte) (points []sampling.CoveragePoint, cached bool, lastCk []byte, err error) {
	job := NewJobRequest(cfg, f.cfg.CheckpointEvery, resume)
	body, err := json.Marshal(job)
	if err != nil {
		return nil, false, nil, fmt.Errorf("dist: marshaling job: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, addr+PathCoverage, bytes.NewReader(body))
	if err != nil {
		return nil, false, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := f.jobs.Do(req)
	if err != nil {
		return nil, false, nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		if resp.StatusCode >= 400 && resp.StatusCode < 500 {
			return nil, false, nil, &RejectedError{Status: resp.StatusCode, Message: string(bytes.TrimSpace(msg))}
		}
		return nil, false, nil, fmt.Errorf("dist: worker %s answered HTTP %d: %s", addr, resp.StatusCode, bytes.TrimSpace(msg))
	}

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64*1024), maxJobBytes)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var fr Frame
		if err := json.Unmarshal(line, &fr); err != nil {
			return nil, false, lastCk, fmt.Errorf("dist: undecodable frame from %s: %w", addr, err)
		}
		if f.cfg.OnFrame != nil {
			f.cfg.OnFrame(addr, fr)
		}
		switch fr.Type {
		case FrameCheckpoint:
			mResumedFrames.Inc()
			if len(fr.Checkpoint) > 0 {
				lastCk = fr.Checkpoint
			}
		case FrameResult:
			return ToPoints(fr.Points), fr.Cached, lastCk, nil
		case FrameError:
			return nil, false, lastCk, fmt.Errorf("dist: worker %s reported: %s", addr, fr.Error)
		default:
			return nil, false, lastCk, fmt.Errorf("dist: unknown frame type %q from %s", fr.Type, addr)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, false, lastCk, fmt.Errorf("dist: stream from %s broke: %w", addr, err)
	}
	return nil, false, lastCk, fmt.Errorf("dist: stream from %s ended without a result", addr)
}
