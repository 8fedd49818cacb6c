package server

import (
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"
)

// secWindow counts events into per-second buckets so readiness can look
// at a short trailing rate without locks. Buckets are keyed by unix
// second and lazily reset on reuse; an event racing a second boundary
// may land in the retiring bucket, which skews a health heuristic by at
// most one request and is deliberately tolerated.
type secWindow struct {
	buckets [16]secBucket
}

type secBucket struct {
	sec atomic.Int64
	n   atomic.Int64
}

// Add counts n events in the current second's bucket.
func (w *secWindow) Add(n int64) {
	now := time.Now().Unix()
	b := &w.buckets[now%int64(len(w.buckets))]
	if s := b.sec.Load(); s != now {
		if b.sec.CompareAndSwap(s, now) {
			b.n.Store(0)
		}
	}
	b.n.Add(n)
}

// Sum totals the events of the last k seconds (k < len(buckets)).
func (w *secWindow) Sum(k int64) int64 {
	now := time.Now().Unix()
	var total int64
	for i := range w.buckets {
		b := &w.buckets[i]
		if sec := b.sec.Load(); sec > now-k && sec <= now {
			total += b.n.Load()
		}
	}
	return total
}

// Readiness thresholds: the shed-rate check looks at the last
// readyWindowSec seconds, degrades past readyMaxShedRate of them shed,
// and stays green below readyMinRequests total requests (an idle server
// that shed its only request is not degraded);
// the error-budget check needs sloMinRequests observations before a
// budget can flip readiness, so one early failure cannot flap it.
const (
	readyWindowSec   = 10
	readyMaxShedRate = 0.5
	readyMinRequests = 20
	sloMinRequests   = 100
)

// BeginDrain flips readiness to draining. Call it before
// http.Server.Shutdown so load balancers stop routing new work while
// in-flight requests finish; liveness stays green throughout.
func (s *Server) BeginDrain() {
	s.draining.Store(true)
}

// handleLive is the liveness probe: the process is up and serving its
// mux. It stays 200 through drains and degradation — restarting a
// draining server would defeat the drain.
func (s *Server) handleLive(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	io.WriteString(w, `{"status":"ok"}`+"\n")
}

// readyResponse is the readiness body: overall status plus the verdict
// of every individual check ("ok" or a reason).
type readyResponse struct {
	Status string            `json:"status"`
	Checks map[string]string `json:"checks"`
}

// handleReady is the readiness probe. It degrades (503) while draining,
// when the trailing shed rate exceeds readyMaxShedRate, when
// every concurrency slot is busy, or when an endpoint's error budget is
// exhausted — all conditions under which routing new traffic here makes
// things worse, while the process itself stays healthy (live).
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	checks := map[string]string{}
	ok := true
	verdict := func(name string, bad bool, detail string) {
		if bad {
			checks[name] = detail
			ok = false
		} else {
			checks[name] = "ok"
		}
	}

	draining := s.draining.Load()
	verdict("draining", draining, "server is draining")

	total := s.winTotal.Sum(readyWindowSec)
	shed := s.winShed.Sum(readyWindowSec)
	verdict("shed_rate",
		total >= readyMinRequests && float64(shed) > readyMaxShedRate*float64(total),
		fmt.Sprintf("shed %d of %d requests in the last %ds", shed, total, readyWindowSec))

	verdict("saturation", int(s.inflight.Load()) >= s.cfg.MaxConcurrent,
		"every concurrency slot is busy")

	budgetDetail := ""
	for _, ep := range s.endpointList() {
		if ep.slo.Exhausted(sloMinRequests) {
			budgetDetail = fmt.Sprintf("endpoint %s has exhausted its error budget", ep.name)
			break
		}
	}
	verdict("error_budget", budgetDetail != "", budgetDetail)

	status, code := "ready", http.StatusOK
	if !ok {
		code = http.StatusServiceUnavailable
		status = "degraded"
		if draining {
			status = "draining"
		}
	}
	writeJSON(w, code, readyResponse{Status: status, Checks: checks})
}
