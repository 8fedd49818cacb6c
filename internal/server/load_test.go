package server

import (
	"bytes"
	"context"
	"net/http"
	"sync"
	"testing"

	"nodevar/internal/memo"
)

// TestServerLoad is the load-shedding smoke (`make check` runs it under
// the race detector): ~120 concurrent identical /v1/coverage requests
// against a deliberately lowered concurrency limit. The contract under
// load:
//
//   - exactly one coverage study executes (cache-miss delta == 1);
//   - every admitted request is served the same bytes;
//   - everything past the concurrency limit is shed with 429 and counted.
//
// The flight is gated so the outcome is deterministic: while the gate is
// closed, admitted requests occupy their semaphore slots waiting on the
// single flight, so exactly limit requests are admitted and the rest
// must shed.
func TestServerLoad(t *testing.T) {
	const (
		limit = 16
		K     = 120
	)
	s, ts := newTestServer(t, Config{MaxConcurrent: limit})
	release := make(chan struct{})
	s.coverageGate = func(ctx context.Context) error {
		select {
		case <-release:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}

	miss0, coal0, shed0 := mCacheMisses.Value(), mCacheCoalesced.Value(), mShed.Value()

	var wg sync.WaitGroup
	statuses := make([]int, K)
	bodies := make([][]byte, K)
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, body := postJSON(t, ts.URL+"/v1/coverage", coverageBody)
			statuses[i] = resp.StatusCode
			bodies[i] = body
		}(i)
	}

	// Steady state under the closed gate: limit requests in (1 leader +
	// limit-1 coalesced waiters), K-limit shed.
	waitFor(t, "admitted requests to fill the limit and the rest to shed", func() bool {
		return mCacheMisses.Value()-miss0 == 1 &&
			mCacheCoalesced.Value()-coal0 == limit-1 &&
			mShed.Value()-shed0 == K-limit
	})
	close(release)
	wg.Wait()

	var ok200, shed429 int
	var served []byte
	for i := 0; i < K; i++ {
		switch statuses[i] {
		case http.StatusOK:
			ok200++
			if served == nil {
				served = bodies[i]
			} else if !bytes.Equal(bodies[i], served) {
				t.Fatalf("request %d served different bytes", i)
			}
		case http.StatusTooManyRequests:
			shed429++
			decodeAPIError(t, bodies[i])
		default:
			t.Fatalf("request %d: unexpected status %d\n%s", i, statuses[i], bodies[i])
		}
	}
	if ok200 != limit || shed429 != K-limit {
		t.Errorf("served %d / shed %d, want %d / %d", ok200, shed429, limit, K-limit)
	}
	if d := mCacheMisses.Value() - miss0; d != 1 {
		t.Errorf("cache misses under load = %d, want exactly 1", d)
	}
	if d := mShed.Value() - shed0; d != K-limit {
		t.Errorf("shed counter = %d, want %d", d, K-limit)
	}

	// After the storm: a single retry (what a shed client does next) is
	// a cache hit with bytes identical to the storm's responses.
	s.coverageGate = nil
	resp, body := postJSON(t, ts.URL+"/v1/coverage", coverageBody)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != string(memo.Hit) {
		t.Fatalf("retry: status %d X-Cache %q", resp.StatusCode, resp.Header.Get("X-Cache"))
	}
	if !bytes.Equal(body, served) {
		t.Errorf("retry bytes differ from storm bytes")
	}
	if d := mCacheMisses.Value() - miss0; d != 1 {
		t.Errorf("cache misses after retry = %d, want still 1", d)
	}
}
