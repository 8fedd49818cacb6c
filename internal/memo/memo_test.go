package memo

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nodevar/internal/obs"
)

// TestCanceledFlightNotJoined pins the abandon/rejoin window: after the
// last waiter abandons a flight (marking it canceled) but before run()
// unregisters it, a new call with a live context must lead a fresh
// computation rather than inherit the doomed flight's context.Canceled.
func TestCanceledFlightNotJoined(t *testing.T) {
	c := New[string, []byte](4, Counters{})
	base := context.Background()
	started := make(chan struct{})
	release := make(chan struct{})
	var calls atomic.Int32
	compute := func(ctx context.Context) ([]byte, bool, error) {
		if calls.Add(1) == 1 {
			close(started)
			<-ctx.Done() // wait for the abandon to cancel us...
			<-release    // ...then stall run() so the flight stays registered
			return nil, true, ctx.Err()
		}
		return []byte("fresh"), true, nil
	}

	ctx1, cancel1 := context.WithCancel(base)
	errCh := make(chan error, 1)
	go func() {
		_, _, err := c.Do(ctx1, base, "k", compute)
		errCh <- err
	}()
	<-started
	cancel1()
	// Do returns after the abandon path marked the flight canceled; its
	// run goroutine is still parked on release, so the stale flight is
	// still in c.flights when the next call arrives.
	if err := <-errCh; !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoning waiter got %v, want context.Canceled", err)
	}

	body, status, err := c.Do(context.Background(), base, "k", compute)
	if err != nil {
		t.Fatalf("rejoin after abandon: %v (joined the canceled flight?)", err)
	}
	if status != Miss || string(body) != "fresh" {
		t.Errorf("rejoin got status %q body %q, want a fresh miss", status, body)
	}

	// Unstall the stale flight's run(); its error must not be cached and
	// its guarded cleanup must not disturb the successor's cached result.
	close(release)
	if _, status, _ := c.Do(context.Background(), base, "k", compute); status != Hit {
		t.Errorf("follow-up status %q, want hit from the replacement flight", status)
	}
	if n := calls.Load(); n != 2 {
		t.Errorf("computations = %d, want 2 (abandoned + replacement)", n)
	}
}

// TestCacheEviction pins the FIFO bound on completed results.
func TestCacheEviction(t *testing.T) {
	c := New[string, []byte](2, Counters{})
	ctx := context.Background()
	for _, key := range []string{"a", "b", "c"} {
		key := key
		_, _, err := c.Do(ctx, ctx, key, func(context.Context) ([]byte, bool, error) {
			return []byte(key), true, nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if c.Len() != 2 {
		t.Errorf("cache holds %d entries, want 2", c.Len())
	}
	// "a" was evicted: recomputing it is a miss, "c" is still a hit.
	if _, status, _ := c.Do(ctx, ctx, "c", func(context.Context) ([]byte, bool, error) {
		return []byte("c2"), true, nil
	}); status != Hit {
		t.Errorf(`"c" status %q, want hit`, status)
	}
	if _, status, _ := c.Do(ctx, ctx, "a", func(context.Context) ([]byte, bool, error) {
		return []byte("a2"), true, nil
	}); status != Miss {
		t.Errorf(`"a" status %q, want miss after eviction`, status)
	}
}

// TestUncacheableResultNotStored pins the degraded-mode contract: a
// compute that disclaims its result (cacheable=false) still answers its
// own waiters, but the next call recomputes instead of hitting.
func TestUncacheableResultNotStored(t *testing.T) {
	c := New[string, []byte](4, Counters{})
	ctx := context.Background()
	var calls atomic.Int32
	compute := func(context.Context) ([]byte, bool, error) {
		calls.Add(1)
		return []byte("degraded"), false, nil
	}
	body, status, err := c.Do(ctx, ctx, "k", compute)
	if err != nil || string(body) != "degraded" || status != Miss {
		t.Fatalf("first call: body %q status %q err %v", body, status, err)
	}
	if _, status, _ = c.Do(ctx, ctx, "k", compute); status != Miss {
		t.Fatalf("second call status %q, want miss (uncacheable result was stored)", status)
	}
	if c.Len() != 0 {
		t.Fatalf("cache holds %d entries, want 0", c.Len())
	}
	if calls.Load() != 2 {
		t.Fatalf("computations = %d, want 2", calls.Load())
	}
}

// TestComputePanicReachesEveryWaiter pins panic propagation: a panic in
// the flight goroutine is recovered there (it would otherwise kill the
// process) and re-raised in the leader and in a coalesced waiter, and
// nothing is cached, so the next call recomputes.
func TestComputePanicReachesEveryWaiter(t *testing.T) {
	c := New[string, int](4, Counters{})
	ctx := context.Background()
	joined := make(chan struct{})
	var calls atomic.Int32
	compute := func(context.Context) (int, bool, error) {
		if calls.Add(1) == 1 {
			<-joined
			panic("compute exploded")
		}
		return 7, true, nil
	}

	var wg sync.WaitGroup
	recovered := make([]any, 2)
	for i := range recovered {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { recovered[i] = recover() }()
			c.Do(ctx, ctx, "k", compute)
		}(i)
	}
	// Both callers are on the flight once one of them coalesced.
	for {
		c.mu.Lock()
		f := c.flights["k"]
		c.mu.Unlock()
		if f != nil {
			f.mu.Lock()
			n := f.waiters
			f.mu.Unlock()
			if n == 2 {
				break
			}
		}
		time.Sleep(time.Millisecond)
	}
	close(joined)
	wg.Wait()
	for i, v := range recovered {
		if v != "compute exploded" {
			t.Errorf("waiter %d recovered %v, want the compute's panic value", i, v)
		}
	}
	v, status, err := c.Do(ctx, ctx, "k", compute)
	if err != nil || v != 7 || status != Miss {
		t.Fatalf("after panic: %d %q %v, want a fresh miss", v, status, err)
	}
}

// TestResetCountsEvictions pins Reset: every completed result is
// dropped and counted as an eviction.
func TestResetCountsEvictions(t *testing.T) {
	ev := obs.NewCounter("memo.test.evictions")
	c := New[int, int](4, Counters{Evictions: ev})
	ctx := context.Background()
	for k := 0; k < 3; k++ {
		c.Do(ctx, ctx, k, func(context.Context) (int, bool, error) { return k, true, nil })
	}
	before := ev.Value()
	c.Reset()
	if c.Len() != 0 {
		t.Fatalf("cache holds %d entries after Reset", c.Len())
	}
	if d := ev.Value() - before; d != 3 {
		t.Fatalf("evictions on reset = %d, want 3", d)
	}
	if _, status, _ := c.Do(ctx, ctx, 1, func(context.Context) (int, bool, error) { return 1, true, nil }); status != Miss {
		t.Fatalf("status %q after Reset, want miss", status)
	}
}
