package server

import (
	"context"
	"log/slog"
	"math"
	"net/http"
	"runtime/debug"
	"strconv"
	"sync/atomic"
	"time"

	"nodevar/internal/obs"
)

// latencyBuckets are the request-latency histogram bounds shared by the
// global histogram and the per-endpoint labelled families.
var latencyBuckets = []float64{0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 30}

// statusClasses are the status label values of the per-endpoint
// families, indexed by classIdx.
var statusClasses = [5]string{"1xx", "2xx", "3xx", "4xx", "5xx"}

// classIdx maps an HTTP status onto its class index (clamped, so even a
// nonsense status lands somewhere rather than panicking).
func classIdx(status int) int {
	c := status/100 - 1
	if c < 0 {
		c = 0
	}
	if c > 4 {
		c = 4
	}
	return c
}

// Per-endpoint labelled families. Label sets are small and fixed by
// construction: five endpoints × five status classes.
var (
	vEndpointReqs = obs.NewCounterVec("server.endpoint_requests", "endpoint", "status")
	vEndpointSecs = obs.NewHistogramVec("server.endpoint_seconds", latencyBuckets, "endpoint", "status")
)

// endpointObs bundles one endpoint's pre-resolved observability handles
// so the request hot path never touches a registry or a vec map: the
// status class indexes a fixed array of counter/histogram pointers, and
// each update is a single atomic add.
type endpointObs struct {
	name    string
	reqs    *obs.Counter
	byClass [5]*obs.Counter
	latency [5]*obs.Histogram
	slo     *obs.SLO

	// retryHint caches the derived Retry-After value for one second,
	// packed as (unixSecond << 8) | seconds, so a shed storm does not
	// snapshot the latency histogram per rejected request.
	retryHint atomic.Uint64
}

func (s *Server) newEndpointObs(name string) *endpointObs {
	ep := &endpointObs{
		name: name,
		reqs: obs.NewCounter("server.requests." + name),
		slo:  obs.NewSLO(name, sloTarget(name), sloObjective),
	}
	for i, class := range statusClasses {
		ep.byClass[i] = vEndpointReqs.With(name, class)
		ep.latency[i] = vEndpointSecs.With(name, class)
	}
	return ep
}

// retryAfterSecs derives the 429 Retry-After hint from observed
// behavior: the p50 of the endpoint's 2xx latency histogram, rounded up
// to whole seconds and clamped to [1, 30]. A slot freed by a typical
// successful request is the soonest a retry can be admitted, so the
// median service time is an honest hint where the old hard-coded "1"
// told clients to hammer a server mid coverage study.
func (ep *endpointObs) retryAfterSecs() int {
	now := uint64(time.Now().Unix())
	if packed := ep.retryHint.Load(); packed>>8 == now {
		return int(packed & 0xff)
	}
	secs := 1
	if p50 := ep.latency[classIdx(http.StatusOK)].Snapshot().Quantile(0.5); !math.IsNaN(p50) {
		switch s := math.Ceil(p50); {
		case s > 30:
			secs = 30
		case s > 1:
			secs = int(s)
		}
	}
	ep.retryHint.Store(now<<8 | uint64(secs))
	return secs
}

// statusWriter records the response status and body size for
// instrumentation and passes flushes through so streaming handlers keep
// working behind the middleware stack.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.bytes += int64(n)
	return n, err
}

// Flush implements http.Flusher when the underlying writer does.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrument counts the request (globally, per endpoint, and per status
// class), tracks the in-flight gauge, observes end-to-end latency
// including shed and error paths — a shed request is still a served
// request — feeds the endpoint's SLO and the readiness shed-rate window,
// and emits the access-log line.
func (s *Server) instrument(ep *endpointObs, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mRequests.Inc()
		ep.reqs.Inc()
		s.inflight.Add(1)
		gInflight.Add(1)
		defer func() {
			s.inflight.Add(-1)
			gInflight.Sub(1)
		}()
		t0 := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		h.ServeHTTP(sw, r)
		dur := time.Since(t0).Seconds()
		hLatency.Observe(dur)
		ci := classIdx(sw.status)
		ep.byClass[ci].Inc()
		ep.latency[ci].Observe(dur)
		shed := sw.status == http.StatusTooManyRequests
		s.winTotal.Add(1)
		if shed {
			s.winShed.Add(1)
		}
		// A shed or 5xx response burns error budget; 4xx client errors are
		// the client's fault and do not.
		ep.slo.Observe(dur, sw.status < 500 && !shed)
		if sw.status >= 500 {
			mErrors.Inc()
		}
		s.accessLog(r, ep, sw, dur)
	})
}

// accessLog emits one structured line per request. Trace ID and cache
// outcome ride on the response headers the inner middleware already set,
// so the log line correlates with GET /v1/trace/{id} and the coalescing
// behavior without any extra plumbing.
func (s *Server) accessLog(r *http.Request, ep *endpointObs, sw *statusWriter, dur float64) {
	if s.access == nil {
		return
	}
	s.access.LogAttrs(r.Context(), slog.LevelInfo, "request",
		slog.String("method", r.Method),
		slog.String("path", r.URL.Path),
		slog.String("endpoint", ep.name),
		slog.Int("status", sw.status),
		slog.Int64("bytes", sw.bytes),
		slog.Float64("latency_ms", dur*1e3),
		slog.String("trace_id", sw.Header().Get("X-Trace-Id")),
		slog.String("cache", sw.Header().Get("X-Cache")),
	)
}

// limit sheds load past the concurrency cap: a request that cannot
// immediately acquire a slot is answered 429 with a Retry-After derived
// from the endpoint's own median latency rather than queued, keeping
// latency bounded for the requests that do get in.
func (s *Server) limit(ep *endpointObs, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case s.sem <- struct{}{}:
			defer func() { <-s.sem }()
			h.ServeHTTP(w, r)
		default:
			mShed.Inc()
			w.Header().Set("Retry-After", strconv.Itoa(ep.retryAfterSecs()))
			writeError(w, http.StatusTooManyRequests, codeShed,
				"server at its concurrency limit; retry shortly")
		}
	})
}

// traceMW opens the request's root span in a per-request trace buffer.
// An incoming W3C traceparent header continues the caller's trace
// (its trace ID keyed, its span parented); otherwise a fresh trace ID is
// minted. The trace ID is echoed in X-Trace-Id — the handle for
// GET /v1/trace/{id} — and a traceparent response header, and the span
// travels down the request context so the cache, the coverage study's
// chunks and the worker pool all land in the same trace.
func (s *Server) traceMW(ep *endpointObs, h http.Handler) http.Handler {
	if s.traces == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var (
			incoming obs.TraceID
			parent   obs.SpanID
		)
		if tp := r.Header.Get("traceparent"); tp != "" {
			if t, ps, _, err := obs.ParseTraceparent(tp); err == nil {
				incoming, parent = t, ps
			}
		}
		buf := s.traces.Start(incoming)
		sp := buf.Root("request", ep.name, parent)
		sp.Attr("method", r.Method)
		sp.Attr("path", r.URL.Path)
		w.Header().Set("X-Trace-Id", buf.ID().String())
		w.Header().Set("traceparent", obs.FormatTraceparent(buf.ID(), sp.ID(), true))
		h.ServeHTTP(w, r.WithContext(obs.ContextWithSpan(r.Context(), sp)))
		if sw, ok := w.(*statusWriter); ok {
			sp.Attr("status", strconv.Itoa(sw.status))
		}
		sp.End()
	})
}

// timeout bounds the request with the configured deadline. Handlers pass
// the request context down into CoverageStudyCtx waits, so the deadline
// is the request's whole budget, not just its queueing time.
func (s *Server) timeout(h http.Handler) http.Handler {
	if s.cfg.RequestTimeout <= 0 {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		h.ServeHTTP(w, r.WithContext(ctx))
	})
}

// protect converts a handler panic into a structured 500 instead of
// tearing down the connection, mirroring the worker panic isolation in
// internal/parallel.
func (s *Server) protect(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if p := recover(); p != nil {
				mPanics.Inc()
				s.log.Error("handler panic recovered",
					"path", r.URL.Path, "panic", p, "stack", string(debug.Stack()))
				writeError(w, http.StatusInternalServerError, codeInternal, "internal error")
			}
		}()
		h.ServeHTTP(w, r)
	})
}
