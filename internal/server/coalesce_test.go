package server

import (
	"bytes"
	"context"
	"net/http"
	"sync"
	"testing"
	"time"

	"nodevar/internal/memo"
)

// coverageBody is the small deterministic study the concurrency tests
// share: cheap enough to run under -race, expensive enough to be worth
// coalescing.
const coverageBody = `{"replicates":400,"sample_sizes":[5],"levels":[0.95],"seed":11}`

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestCoverageCoalescing drives K concurrent identical /v1/coverage
// requests through a gated flight: exactly one study executes
// (cache-miss delta == 1), every waiter coalesces onto it, and all K
// bodies are byte-identical — as is a later cache hit.
func TestCoverageCoalescing(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxConcurrent: 64})
	release := make(chan struct{})
	s.coverageGate = func(ctx context.Context) error {
		select {
		case <-release:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}

	const K = 24
	miss0, hit0, coal0 := mCacheMisses.Value(), mCacheHits.Value(), mCacheCoalesced.Value()

	var wg sync.WaitGroup
	bodies := make([][]byte, K)
	statuses := make([]int, K)
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, body := postJSON(t, ts.URL+"/v1/coverage", coverageBody)
			statuses[i] = resp.StatusCode
			bodies[i] = body
		}(i)
	}

	// Every request must have joined the single flight before the gate
	// opens: 1 leader (miss) + K-1 coalesced waiters.
	waitFor(t, "all requests to coalesce", func() bool {
		return mCacheMisses.Value()-miss0 == 1 && mCacheCoalesced.Value()-coal0 == K-1
	})
	close(release)
	wg.Wait()

	for i := 0; i < K; i++ {
		if statuses[i] != http.StatusOK {
			t.Fatalf("request %d: status %d\n%s", i, statuses[i], bodies[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("request %d body differs from request 0:\n%s\n%s", i, bodies[i], bodies[0])
		}
	}
	if d := mCacheMisses.Value() - miss0; d != 1 {
		t.Errorf("cache misses = %d, want exactly 1", d)
	}

	// A later identical request is a pure cache hit with the same bytes.
	s.coverageGate = nil
	resp, body := postJSON(t, ts.URL+"/v1/coverage", coverageBody)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != string(memo.Hit) {
		t.Fatalf("follow-up: status %d, X-Cache %q", resp.StatusCode, resp.Header.Get("X-Cache"))
	}
	if !bytes.Equal(body, bodies[0]) {
		t.Errorf("cache hit body differs from computed body")
	}
	if d := mCacheMisses.Value() - miss0; d != 1 {
		t.Errorf("cache misses after hit = %d, want still 1", d)
	}
	if mCacheHits.Value()-hit0 < 1 {
		t.Errorf("no cache hit recorded")
	}

	// Different configurations do not share results: a new seed is a new
	// study.
	resp, body2 := postJSON(t, ts.URL+"/v1/coverage",
		`{"replicates":400,"sample_sizes":[5],"levels":[0.95],"seed":12}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("new-seed request: %d\n%s", resp.StatusCode, body2)
	}
	if bytes.Equal(body2, bodies[0]) {
		t.Errorf("different seeds served identical bodies")
	}
	if d := mCacheMisses.Value() - miss0; d != 2 {
		t.Errorf("cache misses after new config = %d, want 2", d)
	}
}

// TestCoverageAbandonCancelsStudy covers the request-timeout wiring into
// the cancellation stack: when every waiter times out, the in-flight
// study's context is canceled, the error is not cached, and a later
// request recomputes.
func TestCoverageAbandonCancelsStudy(t *testing.T) {
	s, ts := newTestServer(t, Config{RequestTimeout: 150 * time.Millisecond})
	// A tiny custom-pilot study, so the post-abandon retry fits well
	// inside the deliberately short request budget.
	tinyBody := `{"pilot_data":[97,99,100,101,103],"population":50,"replicates":200,"sample_sizes":[5],"levels":[0.95],"seed":3}`
	canceled := make(chan struct{})
	s.coverageGate = func(ctx context.Context) error {
		<-ctx.Done() // hold the flight until abandonment cancels it
		close(canceled)
		return ctx.Err()
	}

	miss0, abandon0 := mCacheMisses.Value(), mAbandoned.Value()
	resp, body := postJSON(t, ts.URL+"/v1/coverage", tinyBody)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("timed-out request: status %d, want 504\n%s", resp.StatusCode, body)
	}
	decodeAPIError(t, body)

	select {
	case <-canceled:
	case <-time.After(10 * time.Second):
		t.Fatal("flight context never canceled after all waiters left")
	}
	if d := mAbandoned.Value() - abandon0; d != 1 {
		t.Errorf("abandoned studies = %d, want 1", d)
	}

	// The failed flight must not be cached: the next request starts a
	// fresh study and succeeds. It leads a new flight even if the
	// canceled one is still unwinding (see memo.Cache.Do).
	s.coverageGate = nil
	resp, body = postJSON(t, ts.URL+"/v1/coverage", tinyBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("retry after abandon: status %d\n%s", resp.StatusCode, body)
	}
	if resp.Header.Get("X-Cache") != string(memo.Miss) {
		t.Errorf("retry served X-Cache %q, want miss (errors must not be cached)", resp.Header.Get("X-Cache"))
	}
	if d := mCacheMisses.Value() - miss0; d != 2 {
		t.Errorf("cache misses = %d, want 2 (abandoned + retry)", d)
	}
}

// TestCoverageComputePanicRecovered covers a panic inside a coverage
// computation. The study runs on the cache's flight goroutine, outside
// any handler's recover, so the panic is carried back to the request
// and answered by the panic middleware as a 500 instead of killing the
// process. Nothing is cached: the next request recomputes.
func TestCoverageComputePanicRecovered(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	panics0, miss0 := mPanics.Value(), mCacheMisses.Value()
	s.coverageGate = func(context.Context) error { panic("study exploded") }
	resp, body := postJSON(t, ts.URL+"/v1/coverage", coverageBody)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking study: status %d, want 500\n%s", resp.StatusCode, body)
	}
	decodeAPIError(t, body)
	if d := mPanics.Value() - panics0; d != 1 {
		t.Errorf("recovered panics = %d, want 1", d)
	}

	s.coverageGate = nil
	resp, body = postJSON(t, ts.URL+"/v1/coverage", coverageBody)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != string(memo.Miss) {
		t.Fatalf("after panic: status %d, X-Cache %q\n%s", resp.StatusCode, resp.Header.Get("X-Cache"), body)
	}
	if d := mCacheMisses.Value() - miss0; d != 2 {
		t.Errorf("cache misses = %d, want 2 (panicked + retry)", d)
	}
}
