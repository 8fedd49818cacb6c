package dist

import (
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"nodevar/internal/memo"
	"nodevar/internal/obs"
	"nodevar/internal/sampling"
)

// Worker-side metrics: the compute tier's own view of the fleet's
// behaviour, scraped from the worker's /metrics.
var (
	mWorkerJobs      = obs.NewCounter("dist.worker.jobs")
	mWorkerResumed   = obs.NewCounter("dist.worker.jobs_resumed")
	mWorkerFailed    = obs.NewCounter("dist.worker.jobs_failed")
	mWorkerRejected  = obs.NewCounter("dist.worker.jobs_rejected")
	mWorkerCacheHits = obs.NewCounter("dist.worker.cache_hits")
	mWorkerJoined    = obs.NewCounter("dist.worker.jobs_coalesced")
	mWorkerFrames    = obs.NewCounter("dist.worker.frames_streamed")
	gWorkerActive    = obs.NewGauge("dist.worker.active_jobs")
)

// maxWorkerJobs caps coverage studies computing at once on one worker;
// excess jobs queue (the connection waits) rather than shed, because the
// frontend has already committed the study to this worker. Each study
// already fans out over GOMAXPROCS, so more studies at once would
// only share the same cores.
const maxWorkerJobs = 4

// WorkerConfig parameterizes a Worker. The zero value is usable.
type WorkerConfig struct {
	// ChunkDelay, when positive, sleeps this long after every completed
	// chunk. It exists for chaos and scaling harnesses that need
	// studies with predictable wall-clock length regardless of CPU;
	// production workers leave it zero.
	ChunkDelay time.Duration
	// Log receives job-level diagnostics. Default: discard.
	Log *slog.Logger
}

// Worker is the compute tier: it accepts coverage jobs over the small
// HTTP/JSON protocol, streams checkpoint envelopes back as the study
// progresses, and keys its studies by JobID in a memo.Cache, so a
// duplicate dispatch joins the study in flight or replays the completed
// one instead of recomputing.
type Worker struct {
	cfg   WorkerConfig
	log   *slog.Logger
	sem   chan struct{}
	cache *memo.Cache[string, []Point]
}

// NewWorker builds a Worker, applying defaults.
func NewWorker(cfg WorkerConfig) *Worker {
	if cfg.Log == nil {
		cfg.Log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return &Worker{
		cfg:   cfg,
		log:   cfg.Log,
		sem:   make(chan struct{}, maxWorkerJobs),
		cache: memo.New[string, []Point](memo.DefaultEntries, memo.Counters{Hits: mWorkerCacheHits, Coalesced: mWorkerJoined}),
	}
}

// Handler returns the worker's route table: the job endpoint, the
// health probe, and the shared metrics exposition.
func (w *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+PathCoverage, w.handleCoverage)
	mux.HandleFunc("GET "+PathHealthz, func(rw http.ResponseWriter, r *http.Request) {
		rw.Header().Set("Content-Type", "application/json")
		rw.Write([]byte(`{"status":"ok"}` + "\n"))
	})
	mux.Handle("GET /metrics", obs.PromHandler())
	return mux
}

// handleCoverage runs one coverage job, streaming NDJSON frames:
// checkpoint frames at the configured cadence, then exactly one result
// or error frame. Validation failures are plain 400s before any
// streaming starts; a failure mid-study becomes an error frame because
// the 200 header is already on the wire.
//
// Jobs go through the cache keyed by JobID. A JobID computed before
// replays its points — the re-dispatch a frontend issues after a torn
// response or a lost connection costs nothing — and a JobID in flight
// is joined, so concurrent dispatches of one study run it once.
// Checkpoint frames stream only to the connection that leads the study.
func (w *Worker) handleCoverage(rw http.ResponseWriter, r *http.Request) {
	job, cfg, err := DecodeJobRequest(r.Body)
	if err != nil {
		mWorkerRejected.Inc()
		rw.Header().Set("Content-Type", "application/json")
		rw.WriteHeader(http.StatusBadRequest)
		json.NewEncoder(rw).Encode(map[string]string{"error": err.Error()})
		return
	}

	rw.Header().Set("Content-Type", "application/x-ndjson")
	rw.Header().Set("X-Job-Id", job.JobID)
	flusher, _ := rw.(http.Flusher)
	var (
		wmu      sync.Mutex // frames may not interleave
		returned bool       // the handler is done with rw
	)
	writeFrame := func(fr Frame) {
		wmu.Lock()
		defer wmu.Unlock()
		// A study outlives its leading connection while a coalesced
		// waiter still wants it; rw is then no longer ours to write.
		if returned || json.NewEncoder(rw).Encode(fr) != nil {
			return
		}
		mWorkerFrames.Inc()
		if flusher != nil {
			flusher.Flush()
		}
	}
	defer func() {
		wmu.Lock()
		returned = true
		wmu.Unlock()
	}()

	pts, status, err := w.cache.Do(r.Context(), context.Background(), job.JobID, func(ctx context.Context) ([]Point, bool, error) {
		// Admission: queue behind the concurrency cap. Abandonment by
		// every waiting connection releases the wait.
		select {
		case w.sem <- struct{}{}:
			defer func() { <-w.sem }()
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}

		mWorkerJobs.Inc()
		if len(job.Resume) > 0 {
			mWorkerResumed.Inc()
		}
		gWorkerActive.Add(1)
		defer gWorkerActive.Sub(1)

		var lastDone atomic.Int64
		total := cfg.Chunks
		cfg.OnChunk = func(done, tot int) {
			lastDone.Store(int64(done))
			if w.cfg.ChunkDelay > 0 {
				time.Sleep(w.cfg.ChunkDelay)
			}
		}
		// A frame the connection cannot take is not the study's failure:
		// a coalesced waiter may still want the result.
		cfg.OnCheckpoint = func(env []byte) error {
			writeFrame(Frame{
				Type:       FrameCheckpoint,
				Done:       int(lastDone.Load()),
				Total:      total,
				Checkpoint: append([]byte(nil), env...),
			})
			return nil
		}
		if cfg.CheckpointEvery <= 0 {
			cfg.CheckpointEvery = defaultCheckpointEvery
		}
		cfg.ResumeData = job.Resume

		w.log.Info("dist worker: job start", "job", job.JobID, "replicates", cfg.Replicates, "resume", len(job.Resume) > 0)
		points, err := sampling.CoverageStudyCtx(ctx, cfg)
		if err != nil {
			mWorkerFailed.Inc()
			w.log.Warn("dist worker: job failed", "job", job.JobID, "err", err)
			return nil, false, err
		}
		w.log.Info("dist worker: job done", "job", job.JobID)
		return FromPoints(points), true, nil
	})
	if err != nil {
		writeFrame(Frame{Type: FrameError, Error: err.Error()})
		return
	}
	writeFrame(Frame{Type: FrameResult, Points: pts, Cached: status == memo.Hit})
}
