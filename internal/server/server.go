// Package server implements nodevard's HTTP JSON API: the paper's
// sample-size methodology served as a request/response workload. The
// endpoints expose Equations 1-5 and Table 5 (/v1/samplesize,
// /v1/accuracy, /v1/table5), the Level-1 versus revised subset rules
// (/v1/rules), and the Figure 3 bootstrap coverage study (/v1/coverage).
//
// Expensive work goes through a keyed in-memory result cache with
// singleflight coalescing: one coverage study runs per unique
// configuration no matter how many concurrent requests ask for it, and
// every caller — leader, coalesced waiter, or later cache hit — receives
// byte-identical JSON because the study is deterministically seeded and
// the response is marshaled exactly once. The handler stack sheds load
// with 429s past a concurrency limit, bounds every request with a
// timeout wired into the CoverageStudyCtx cancellation stack (a study
// abandoned by all of its waiters is canceled at its next chunk
// boundary), and instruments everything through the internal/obs
// registry, exported at /metrics and /debug/metrics, with profiling
// under /debug/pprof/.
package server

import (
	"context"
	"io"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"nodevar/internal/dist"
	"nodevar/internal/fleet"
	"nodevar/internal/memo"
	"nodevar/internal/obs"
)

// Serving metrics. Counters and gauges live in the process-wide obs
// registry, so a nodevard manifest and /debug/metrics expose the same
// names the CLI tools already emit.
var (
	mRequests       = obs.NewCounter("server.requests")
	mShed           = obs.NewCounter("server.shed")
	mErrors         = obs.NewCounter("server.errors_5xx")
	mPanics         = obs.NewCounter("server.panics_recovered")
	gInflight       = obs.NewGauge("server.inflight")
	hLatency        = obs.NewHistogram("server.request_seconds", latencyBuckets)
	mCacheHits      = obs.NewCounter("server.cache.hits")
	mCacheMisses    = obs.NewCounter("server.cache.misses")
	mCacheCoalesced = obs.NewCounter("server.cache.coalesced")
	mCacheEvicted   = obs.NewCounter("server.cache.evictions")
	mAbandoned      = obs.NewCounter("server.coverage.abandoned")
	hStudy          = obs.NewHistogram("server.coverage.study_seconds",
		[]float64{0.01, 0.05, 0.1, 0.5, 1, 5, 30, 120})

	cacheCounters = memo.Counters{
		Hits:      mCacheHits,
		Misses:    mCacheMisses,
		Coalesced: mCacheCoalesced,
		Evictions: mCacheEvicted,
		Abandoned: mAbandoned,
	}
)

// Config parameterizes a Server. The zero value is usable: every field
// has a production default.
type Config struct {
	// MaxConcurrent caps in-flight /v1/ requests; excess requests are
	// shed immediately with 429 and a Retry-After header rather than
	// queued into a latency collapse. Default 64.
	MaxConcurrent int
	// RequestTimeout bounds each /v1/ request. The deadline propagates
	// through the request context into CoverageStudyCtx, so a timed-out
	// request stops waiting (504) and, when it was the last waiter on a
	// coverage flight, cancels the underlying study at its next chunk
	// boundary. Default 60s; <= 0 means no per-request deadline.
	RequestTimeout time.Duration
	// ManifestDir, when non-empty, receives one manifest-v3 run record
	// per coverage computation (cache misses only — hits are served from
	// memory and inherit the original record), named by the study's
	// (seed, fingerprint) provenance pair.
	ManifestDir string
	// BaseContext is the server's lifecycle context: coalesced coverage
	// studies run on a context derived from it, not from any single
	// request, so one caller's disconnect cannot cancel work other
	// callers are waiting on. Cancel it only after draining. Default
	// context.Background().
	BaseContext context.Context
	// Log receives request-level diagnostics. Default: discard.
	Log *slog.Logger
	// AccessLog, when non-nil, receives one structured line per API
	// request (method, path, endpoint, status, bytes, latency, trace ID,
	// cache outcome). Point it at a slog JSON handler for
	// machine-parseable access logs. Default: no access logging.
	AccessLog *slog.Logger
	// TraceCapacity caps how many recent request traces are retained for
	// GET /v1/trace/{id}. Default obs.DefaultTraceStoreCapacity (256).
	TraceCapacity int
	// DisableTracing turns request-scoped tracing off entirely: no trace
	// buffers, no X-Trace-Id headers, and GET /v1/trace/{id} answers 404.
	DisableTracing bool
	// Dist, when non-nil, routes coverage studies onto a worker fleet
	// instead of computing them in-process: the frontend consistent-hashes
	// each study's (seed, fingerprint) identity onto the fleet, streams
	// checkpointed progress back, and fails over — or degrades to local
	// compute — when workers die. The result cache then acts as this
	// node's L1 over the fleet's compute tier. Degraded-mode responses
	// carry CoverageResponse.Degraded and are never cached.
	Dist *dist.Frontend
}

// sloObjective is every endpoint's success-fraction objective behind the
// error-budget readiness check.
const sloObjective = 0.99

// defaultSLOTargets are the per-endpoint latency targets in seconds; a
// request slower than its endpoint's target burns error budget even
// when it succeeds. A bootstrap study is legitimately slow, so coverage
// and distortion get 30s.
var defaultSLOTargets = map[string]float64{
	"samplesize":       0.25,
	"accuracy":         0.25,
	"table5":           0.25,
	"rules":            0.25,
	"coverage":         30,
	"meters":           0.25,
	"distortion":       30,
	"ingest":           0.25,
	"fleet_stats":      0.25,
	"fleet_samplesize": 0.25,
	"fleet_outliers":   0.25,
}

// sloTarget resolves one endpoint's latency target.
func sloTarget(name string) float64 {
	if t, ok := defaultSLOTargets[name]; ok {
		return t
	}
	return 0.25
}

// Server is the nodevard HTTP API. Create one with New and mount
// Handler on an http.Server.
type Server struct {
	cfg      Config
	log      *slog.Logger
	access   *slog.Logger
	base     context.Context
	sem      chan struct{}
	cache    *memo.Cache[string, []byte]
	dist     *dist.Frontend
	fleets   *fleet.Registry
	traces   *obs.TraceStore
	inflight atomic.Int64

	// Readiness state: draining flips on BeginDrain; the windows feed the
	// trailing shed-rate check.
	draining atomic.Bool
	winTotal secWindow
	winShed  secWindow

	// endpoints holds each API endpoint's observability bundle, created
	// on first registration and iterated by the readiness error-budget
	// check.
	epMu      sync.Mutex
	endpoints map[string]*endpointObs

	// coverageGate, when non-nil, is called at the start of every
	// coverage computation with the flight's context. Tests use it to
	// hold a study in flight at an exact point; production servers leave
	// it nil.
	coverageGate func(context.Context) error
}

// endpoint returns name's observability bundle, creating it on first
// use.
func (s *Server) endpoint(name string) *endpointObs {
	s.epMu.Lock()
	defer s.epMu.Unlock()
	ep, ok := s.endpoints[name]
	if !ok {
		ep = s.newEndpointObs(name)
		s.endpoints[name] = ep
	}
	return ep
}

// endpointList snapshots the registered endpoint bundles.
func (s *Server) endpointList() []*endpointObs {
	s.epMu.Lock()
	defer s.epMu.Unlock()
	out := make([]*endpointObs, 0, len(s.endpoints))
	for _, ep := range s.endpoints {
		out = append(out, ep)
	}
	return out
}

// New builds a Server, applying defaults for unset Config fields.
func New(cfg Config) *Server {
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = 64
	}
	if cfg.RequestTimeout == 0 {
		cfg.RequestTimeout = 60 * time.Second
	}
	if cfg.BaseContext == nil {
		cfg.BaseContext = context.Background()
	}
	if cfg.Log == nil {
		cfg.Log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	s := &Server{
		cfg:       cfg,
		log:       cfg.Log,
		access:    cfg.AccessLog,
		base:      cfg.BaseContext,
		sem:       make(chan struct{}, cfg.MaxConcurrent),
		cache:     memo.New[string, []byte](memo.DefaultEntries, cacheCounters),
		dist:      cfg.Dist,
		endpoints: map[string]*endpointObs{},
	}
	s.fleets = fleet.NewRegistry(fleet.DefaultMaxFleets, fleet.Config{})
	if !cfg.DisableTracing {
		s.traces = obs.NewTraceStore(cfg.TraceCapacity, 0)
	}
	return s
}

// Handler returns the server's route table. API routes pass through the
// middleware stack (instrumentation, load shedding, per-request timeout,
// panic recovery); health and debug routes bypass the limiter so an
// overloaded server can still be observed.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	api := func(name string, h http.HandlerFunc) http.Handler {
		ep := s.endpoint(name)
		return s.instrument(ep, s.limit(ep, s.traceMW(ep, s.timeout(s.protect(h)))))
	}
	mux.Handle("POST /v1/samplesize", api("samplesize", s.handleSampleSize))
	mux.Handle("POST /v1/accuracy", api("accuracy", s.handleAccuracy))
	mux.Handle("GET /v1/table5", api("table5", s.handleTable5))
	mux.Handle("GET /v1/rules", api("rules", s.handleRules))
	mux.Handle("POST /v1/coverage", api("coverage", s.handleCoverage))
	mux.Handle("GET /v1/meters", api("meters", s.handleMeters))
	mux.Handle("POST /v1/distortion", api("distortion", s.handleDistortion))
	mux.Handle("POST /v1/ingest", api("ingest", s.handleIngest))
	mux.Handle("GET /v1/fleet/{id}/stats", api("fleet_stats", s.handleFleetStats))
	mux.Handle("GET /v1/fleet/{id}/samplesize", api("fleet_samplesize", s.handleFleetSampleSize))
	mux.Handle("GET /v1/fleet/{id}/outliers", api("fleet_outliers", s.handleFleetOutliers))
	mux.HandleFunc("GET /v1/trace/{id}", s.handleTrace)

	mux.HandleFunc("GET /healthz", s.handleLive)
	mux.HandleFunc("GET /healthz/live", s.handleLive)
	mux.HandleFunc("GET /healthz/ready", s.handleReady)
	obs.HandleDebug(mux)
	return mux
}
