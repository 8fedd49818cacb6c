package dist

import (
	"context"
	"io"
	"log/slog"
	"net/http"
	"sync"
	"time"

	"nodevar/internal/obs"
	"nodevar/internal/rng"
)

// Registry-level metrics: liveness is the headline gauge (the e2e
// harness watches it fall when a worker is killed and recover when it
// returns), probe counters expose the health loop's behaviour.
var (
	gWorkersLive  = obs.NewGauge("dist.workers_live")
	mProbes       = obs.NewCounter("dist.probe.attempts")
	mProbeFails   = obs.NewCounter("dist.probe.failures")
	mProbeRevived = obs.NewCounter("dist.probe.revived")
	mMarkedDown   = obs.NewCounter("dist.workers_marked_down")
)

const (
	// ringVnodes is the consistent-hash points per worker.
	ringVnodes = 64
	// probeBackoffMax caps a down worker's reconnect backoff.
	probeBackoffMax = 15 * time.Second
)

// workerState tracks one worker's health. Everything behind mu.
type workerState struct {
	addr string

	mu        sync.Mutex
	live      bool
	failures  int           // consecutive probe failures since last success
	backoff   time.Duration // current reconnect backoff
	nextProbe time.Time     // down workers are probed no sooner than this
}

// registry is the frontend's view of the worker fleet: the consistent-
// hash ring for routing plus per-worker health state maintained by a
// probe loop with exponential-backoff-and-jitter reconnects.
type registry struct {
	ring    *hashRing
	workers map[string]*workerState
	order   []string // stable listing for probes and snapshots

	client       *http.Client
	probeEvery   time.Duration
	log          *slog.Logger
	onTransition func(addr string, live bool) // test hook; may be nil

	jmu    sync.Mutex
	jitter *rng.Rand
}

func newRegistry(addrs []string, client *http.Client, probeEvery time.Duration, seed uint64, log *slog.Logger) *registry {
	r := &registry{
		ring:       newHashRing(addrs, ringVnodes),
		workers:    map[string]*workerState{},
		client:     client,
		probeEvery: probeEvery,
		log:        log,
		jitter:     rng.New(seed ^ 0x9e3779b97f4a7c15),
	}
	for _, a := range addrs {
		if _, ok := r.workers[a]; ok {
			continue
		}
		// Workers start optimistically live: the first dispatch finds out
		// the truth immediately (a dead worker fails fast and is marked
		// down), while a pessimistic start would shunt the first requests
		// into degraded local compute for no reason.
		r.workers[a] = &workerState{addr: a, live: true, backoff: probeEvery}
		r.order = append(r.order, a)
	}
	gWorkersLive.Set(float64(len(r.order)))
	return r
}

// sequence is the failover preference order for a job key.
func (r *registry) sequence(key string) []string { return r.ring.Sequence(key) }

// live reports whether addr is currently believed healthy.
func (r *registry) live(addr string) bool {
	w, ok := r.workers[addr]
	if !ok {
		return false
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.live
}

// liveCount counts currently-live workers.
func (r *registry) liveCount() int {
	n := 0
	for _, a := range r.order {
		if r.live(a) {
			n++
		}
	}
	return n
}

// markDown records a worker failure observed on the dispatch path (the
// probe loop will bring it back). Repeated markdowns of an already-down
// worker are no-ops.
func (r *registry) markDown(addr string, why string) {
	w, ok := r.workers[addr]
	if !ok {
		return
	}
	w.mu.Lock()
	was := w.live
	w.live = false
	if was {
		w.failures = 0
		w.backoff = r.probeEvery
		w.nextProbe = time.Now().Add(r.withJitter(w.backoff))
	}
	w.mu.Unlock()
	if was {
		mMarkedDown.Inc()
		gWorkersLive.Set(float64(r.liveCount()))
		r.log.Warn("dist: worker marked down", "worker", addr, "reason", why)
		if r.onTransition != nil {
			r.onTransition(addr, false)
		}
	}
}

// markLive records a successful probe, resetting the backoff schedule.
func (r *registry) markLive(addr string) {
	w, ok := r.workers[addr]
	if !ok {
		return
	}
	w.mu.Lock()
	was := w.live
	w.live = true
	w.failures = 0
	w.backoff = r.probeEvery
	w.mu.Unlock()
	if !was {
		mProbeRevived.Inc()
		gWorkersLive.Set(float64(r.liveCount()))
		r.log.Info("dist: worker revived", "worker", addr)
		if r.onTransition != nil {
			r.onTransition(addr, true)
		}
	}
}

// withJitter spreads a backoff by ±25% so a fleet of frontends does not
// hammer a recovering worker in lockstep.
func (r *registry) withJitter(d time.Duration) time.Duration {
	r.jmu.Lock()
	f := 0.75 + 0.5*r.jitter.Float64()
	r.jmu.Unlock()
	return time.Duration(float64(d) * f)
}

// start runs the health-probe loop until ctx is done. Live workers are
// probed every probeEvery; down workers are probed on their exponential
// backoff schedule (probeEvery doubling up to probeBackoffMax,
// jittered), so a flapping worker neither storms the frontend with
// reconnects nor stays forgotten.
func (r *registry) start(ctx context.Context) {
	tick := r.probeEvery / 4
	if tick < 10*time.Millisecond {
		tick = 10 * time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	// Probe state local to the loop: when each live worker was last
	// probed (down workers keep their own nextProbe).
	lastLive := make(map[string]time.Time, len(r.order))
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		now := time.Now()
		for _, addr := range r.order {
			w := r.workers[addr]
			w.mu.Lock()
			due := false
			if w.live {
				due = now.Sub(lastLive[addr]) >= r.probeEvery
			} else {
				due = !now.Before(w.nextProbe)
			}
			w.mu.Unlock()
			if !due {
				continue
			}
			lastLive[addr] = now
			if r.probe(ctx, addr) {
				r.markLive(addr)
				continue
			}
			w.mu.Lock()
			w.failures++
			if !w.live {
				w.backoff *= 2
				if w.backoff > probeBackoffMax {
					w.backoff = probeBackoffMax
				}
				w.nextProbe = now.Add(r.withJitter(w.backoff))
			}
			wasLive := w.live
			w.mu.Unlock()
			if wasLive {
				r.markDown(addr, "health probe failed")
			}
		}
	}
}

// probe checks one worker's health endpoint.
func (r *registry) probe(ctx context.Context, addr string) bool {
	mProbes.Inc()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, addr+PathHealthz, nil)
	if err != nil {
		mProbeFails.Inc()
		return false
	}
	resp, err := r.client.Do(req)
	if err != nil {
		mProbeFails.Inc()
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		mProbeFails.Inc()
		return false
	}
	return true
}
