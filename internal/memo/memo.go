// Package memo is the program's keyed result cache: singleflight
// coalescing in front of a bounded FIFO of completed values. The API
// server's coverage and distortion bodies, a dist worker's jobs and the
// systems calibration fits all go through it.
package memo

import (
	"context"
	"sync"

	"nodevar/internal/obs"
)

// DefaultEntries is the bound New applies when asked for none.
const DefaultEntries = 128

// Status reports how Do served a call; the server echoes it in the
// X-Cache response header.
type Status string

const (
	Hit       Status = "hit"
	Miss      Status = "miss"
	Coalesced Status = "coalesced"
)

// Counters are the metrics a Cache reports into. Nil fields count into
// private counters; one counter may stand in for several fields.
type Counters struct {
	Hits, Misses, Coalesced, Evictions, Abandoned *obs.Counter
}

// flight is one in-progress computation. Waiters park on done; val, err
// and panicVal are safe to read after done closes. waiters, finished and
// canceled are guarded by mu.
type flight[V any] struct {
	done     chan struct{}
	cancel   context.CancelFunc
	val      V
	err      error
	panicVal any

	mu       sync.Mutex
	waiters  int
	finished bool
	// canceled marks a flight abandoned by its last waiter: its context
	// is already canceled, so joining it could only yield
	// context.Canceled. Do treats a canceled flight as absent and leads
	// a replacement.
	canceled bool
}

// Cache is a keyed value cache with singleflight coalescing. Completed
// successful results are kept (FIFO-evicted past the bound); at most one
// live computation runs per key at a time, and concurrent calls for the
// same key share it (an abandoned, canceled computation may overlap its
// replacement briefly while it unwinds). A computation runs on a context
// derived from Do's base context, not from any single caller: callers
// that stop waiting merely detach, and only when the last waiter
// detaches is the computation itself canceled.
type Cache[K comparable, V any] struct {
	max int
	ctr Counters

	mu      sync.Mutex
	results map[K]V
	order   []K
	flights map[K]*flight[V]
}

// New returns a Cache keeping at most max completed results
// (DefaultEntries when max <= 0).
func New[K comparable, V any](max int, ctr Counters) *Cache[K, V] {
	if max <= 0 {
		max = DefaultEntries
	}
	for _, p := range []**obs.Counter{&ctr.Hits, &ctr.Misses, &ctr.Coalesced, &ctr.Evictions, &ctr.Abandoned} {
		if *p == nil {
			*p = new(obs.Counter)
		}
	}
	return &Cache[K, V]{max: max, ctr: ctr, results: map[K]V{}, flights: map[K]*flight[V]{}}
}

// Do returns the value for key, computing it at most once per flight.
// ctx bounds only this caller's wait; base is the lifecycle context the
// computation runs on. Failed computations are not cached: the next call
// retries. A compute may also disclaim its own result by returning
// cacheable=false — a degraded-mode answer is correct for its callers
// but must not masquerade as the authoritative cached result once the
// fleet is back. A panic in compute is re-raised in every waiter.
func (c *Cache[K, V]) Do(ctx, base context.Context, key K, compute func(context.Context) (V, bool, error)) (v V, status Status, err error) {
	c.mu.Lock()
	if v, ok := c.results[key]; ok {
		c.mu.Unlock()
		c.ctr.Hits.Inc()
		obs.EventCtx(ctx, "cache", "hit")
		return v, Hit, nil
	}
	f, inFlight := c.flights[key]
	status = Coalesced
	if inFlight {
		// Check-and-join is one critical section: once a waiter joins, a
		// concurrent abandon sees waiters > 0 and leaves the flight
		// alive; once the last waiter marks the flight canceled, a new
		// call sees the flag and leads a replacement instead of
		// inheriting the doomed flight's context.Canceled.
		f.mu.Lock()
		if f.canceled {
			inFlight = false
			f.mu.Unlock()
			obs.EventCtx(ctx, "cache", "canceled_rejoin")
		} else {
			f.waiters++
			f.mu.Unlock()
			c.ctr.Coalesced.Inc()
			obs.EventCtx(ctx, "cache", "coalesced_wait")
		}
	}
	if !inFlight {
		fctx, cancel := context.WithCancel(base)
		// The flight runs on the base context, so the leader's span ref
		// is transplanted onto it: the computation's spans land in the
		// leading request's trace even though no request context
		// reaches the flight.
		if ref, ok := obs.SpanRefFromContext(ctx); ok {
			fctx = obs.ContextWithSpanRef(fctx, ref)
		}
		f = &flight[V]{done: make(chan struct{}), cancel: cancel, waiters: 1}
		c.flights[key] = f
		status = Miss
		c.ctr.Misses.Inc()
		obs.EventCtx(ctx, "cache", "miss")
		go c.run(f, key, fctx, compute)
	}
	c.mu.Unlock()

	select {
	case <-f.done:
		if f.panicVal != nil {
			panic(f.panicVal)
		}
		return f.val, status, f.err
	case <-ctx.Done():
		f.mu.Lock()
		f.waiters--
		abandon := f.waiters == 0 && !f.finished
		f.canceled = abandon
		f.mu.Unlock()
		if abandon {
			// Nobody is waiting for this result anymore: cancel the
			// flight's context so the computation stops at its next
			// cancellation point instead of burning cycles for an empty
			// room.
			c.ctr.Abandoned.Inc()
			obs.EventCtx(ctx, "cache", "abandoned")
			f.cancel()
		}
		return v, status, ctx.Err()
	}
}

// run executes the flight and publishes its result. It removes the
// flight from the map and caches the value under the same cache lock, so
// no caller can observe a completed flight that is neither cached nor in
// the flights map. An abandoned flight may have been replaced in the map
// by a successor, so only its own registration is removed. A panic is
// recovered here, where it would kill the process, and handed to the
// waiters.
func (c *Cache[K, V]) run(f *flight[V], key K, fctx context.Context, compute func(context.Context) (V, bool, error)) {
	var cacheable bool
	defer func() {
		p := recover()
		c.mu.Lock()
		f.mu.Lock()
		f.finished, f.panicVal = true, p
		f.mu.Unlock()
		if c.flights[key] == f {
			delete(c.flights, key)
		}
		if p == nil && f.err == nil && cacheable {
			c.insert(key, f.val)
		}
		close(f.done)
		c.mu.Unlock()
		f.cancel()
	}()
	f.val, cacheable, f.err = compute(fctx)
}

// insert stores a completed result, evicting the oldest entries past the
// bound. Caller holds c.mu.
func (c *Cache[K, V]) insert(key K, val V) {
	if _, ok := c.results[key]; ok {
		return
	}
	c.results[key] = val
	c.order = append(c.order, key)
	for len(c.order) > c.max {
		delete(c.results, c.order[0])
		c.order = c.order[1:]
		c.ctr.Evictions.Inc()
	}
}

// Len reports how many completed results are cached.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.results)
}

// Reset drops every completed result, counting each as an eviction.
// Flights still running store their results when they finish.
func (c *Cache[K, V]) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ctr.Evictions.Add(int64(len(c.order)))
	clear(c.results)
	c.order = nil
}
