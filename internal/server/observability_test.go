package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"nodevar/internal/obs"
)

// chromeTraceNames decodes a Chrome-trace JSON body into its event
// names with phases.
func chromeTraceNames(t *testing.T, body []byte) map[string][]string {
	t.Helper()
	var ct struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(body, &ct); err != nil {
		t.Fatalf("trace body is not Chrome-trace JSON: %v\n%s", err, body)
	}
	out := map[string][]string{}
	for _, ev := range ct.TraceEvents {
		out[ev.Ph] = append(out[ev.Ph], ev.Name)
	}
	return out
}

// TestTraceEndToEnd drives a /v1/coverage request through the full
// middleware stack and retrieves its trace: the X-Trace-Id response
// header must resolve at GET /v1/trace/{id} to a valid Chrome trace
// containing the request root, the cache decision, the coverage study
// and its chunk spans. A second identical request must carry a fresh
// trace showing the cache hit.
func TestTraceEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := `{"system":"lrz","replicates":64,"sample_sizes":[3],"levels":[0.95]}`

	resp, _ := postJSON(t, ts.URL+"/v1/coverage", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("coverage status %d", resp.StatusCode)
	}
	traceID := resp.Header.Get("X-Trace-Id")
	if traceID == "" {
		t.Fatal("no X-Trace-Id response header")
	}
	if tp := resp.Header.Get("traceparent"); !strings.Contains(tp, traceID) {
		t.Fatalf("traceparent %q does not carry trace id %s", tp, traceID)
	}

	tresp, tbody := getURL(t, ts.URL+"/v1/trace/"+traceID)
	if tresp.StatusCode != http.StatusOK {
		t.Fatalf("trace retrieval status %d: %s", tresp.StatusCode, tbody)
	}
	if err := obs.ValidateChromeTrace(bytes.NewReader(tbody)); err != nil {
		t.Fatalf("retrieved trace invalid: %v", err)
	}
	names := chromeTraceNames(t, tbody)
	slices := strings.Join(names["X"], ",")
	for _, want := range []string{"coverage", "coverage_compute", "coverage_study", "coverage_chunk"} {
		if !strings.Contains(slices, want) {
			t.Errorf("trace slices missing %q: %s", want, slices)
		}
	}
	if instants := strings.Join(names["i"], ","); !strings.Contains(instants, "miss") {
		t.Errorf("trace instants missing cache miss: %s", instants)
	}

	// Second identical request: cache hit, new trace.
	resp2, _ := postJSON(t, ts.URL+"/v1/coverage", body)
	if got := resp2.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("second request X-Cache %q, want hit", got)
	}
	hitID := resp2.Header.Get("X-Trace-Id")
	if hitID == "" || hitID == traceID {
		t.Fatalf("hit trace id %q, want a fresh trace", hitID)
	}
	_, hbody := getURL(t, ts.URL+"/v1/trace/"+hitID)
	if instants := strings.Join(chromeTraceNames(t, hbody)["i"], ","); !strings.Contains(instants, "hit") {
		t.Errorf("hit trace instants missing cache hit: %s", instants)
	}
}

// TestTraceparentPropagation sends an incoming W3C traceparent and
// expects the response to continue the same trace.
func TestTraceparentPropagation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	incoming := obs.NewTraceID()
	parent := obs.FormatTraceparent(incoming, obs.SpanID{1, 2, 3, 4, 5, 6, 7, 8}, true)

	req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/rules?nodes=1000", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("traceparent", parent)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Trace-Id"); got != incoming.String() {
		t.Fatalf("X-Trace-Id %q, want incoming %s", got, incoming)
	}
}

// TestTraceEndpointErrors covers the non-200 paths of /v1/trace/{id}.
func TestTraceEndpointErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := getURL(t, ts.URL+"/v1/trace/zzzz")
	if resp.StatusCode != http.StatusBadRequest || decodeAPIError(t, body) != codeBadRequest {
		t.Fatalf("malformed id: %d %s", resp.StatusCode, body)
	}
	resp, body = getURL(t, ts.URL+"/v1/trace/"+obs.NewTraceID().String())
	if resp.StatusCode != http.StatusNotFound || decodeAPIError(t, body) != codeNotFound {
		t.Fatalf("unknown id: %d %s", resp.StatusCode, body)
	}

	_, tsOff := newTestServer(t, Config{DisableTracing: true})
	resp, body = getURL(t, tsOff.URL+"/v1/trace/"+obs.NewTraceID().String())
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("tracing disabled: %d %s", resp.StatusCode, body)
	}
	r2, _ := getURL(t, tsOff.URL+"/v1/rules?nodes=64")
	if r2.Header.Get("X-Trace-Id") != "" {
		t.Error("X-Trace-Id set with tracing disabled")
	}
}

// TestMetricsEndpointScrapes asserts GET /metrics serves text exposition
// format 0.0.4 that the in-repo parser accepts and that carries the
// per-endpoint labelled series after traffic.
func TestMetricsEndpointScrapes(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	getURL(t, ts.URL+"/v1/rules?nodes=1000")

	resp, body := getURL(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.PromContentType {
		t.Fatalf("/metrics content type %q", ct)
	}
	fams, err := obs.ParsePrometheus(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("scrape does not parse: %v", err)
	}
	if err := obs.ValidatePrometheus(fams); err != nil {
		t.Fatalf("scrape fails validation: %v", err)
	}
	for _, want := range []string{
		"server_requests", "server_endpoint_requests", "server_endpoint_seconds",
		"slo_requests", "slo_error_budget_remaining", "runtime_goroutines",
	} {
		if fams[want] == nil {
			t.Errorf("scrape missing family %s", want)
		}
	}
	found := false
	for _, s := range fams["server_endpoint_requests"].Samples {
		if s.Labels["endpoint"] == "rules" && s.Labels["status"] == "2xx" && s.Value >= 1 {
			found = true
		}
	}
	if !found {
		t.Error("rules/2xx labelled sample missing from scrape")
	}
}

// TestHealthSplit covers the liveness/readiness split: both green on a
// fresh server, readiness degrading (while liveness holds) on drain.
func TestHealthSplit(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	for _, p := range []string{"/healthz", "/healthz/live", "/healthz/ready"} {
		resp, body := getURL(t, ts.URL+p)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s status %d: %s", p, resp.StatusCode, body)
		}
	}

	s.BeginDrain()
	resp, body := getURL(t, ts.URL+"/healthz/ready")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("ready while draining: %d %s", resp.StatusCode, body)
	}
	var rr readyResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Status != "draining" || rr.Checks["draining"] == "ok" {
		t.Fatalf("draining readiness body: %+v", rr)
	}
	if resp, _ := getURL(t, ts.URL+"/healthz/live"); resp.StatusCode != http.StatusOK {
		t.Error("liveness degraded during drain")
	}
}

// TestReadinessDegradesUnderShedStorm saturates a 1-slot server so most
// requests shed, then expects the shed-rate check to trip.
func TestReadinessDegradesUnderShedStorm(t *testing.T) {
	gate := make(chan struct{})
	s, ts := newTestServer(t, Config{MaxConcurrent: 1})
	s.coverageGate = func(ctx context.Context) error {
		select {
		case <-gate:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}

	// Occupy the only slot with a gated coverage request...
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		postJSON(t, ts.URL+"/v1/coverage", `{"replicates":8,"sample_sizes":[3],"levels":[0.95]}`)
	}()
	waitFor(t, "coverage request to occupy the slot", func() bool { return s.inflight.Load() >= 1 })

	// ...then shed a storm of rules requests.
	for i := 0; i < 30; i++ {
		resp, _ := getURL(t, ts.URL+"/v1/rules?nodes=64")
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("request %d not shed: %d", i, resp.StatusCode)
		}
		if ra := resp.Header.Get("Retry-After"); ra == "" {
			t.Fatal("shed response missing Retry-After")
		} else if _, err := strconv.Atoi(ra); err != nil {
			t.Fatalf("Retry-After %q is not numeric seconds", ra)
		}
	}
	resp, body := getURL(t, ts.URL+"/healthz/ready")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("ready despite shed storm: %d %s", resp.StatusCode, body)
	}
	var rr readyResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Checks["shed_rate"] == "ok" {
		t.Fatalf("shed_rate check still ok: %+v", rr)
	}
	close(gate)
	wg.Wait()
}

// TestRetryAfterDerivedFromLatency seeds an endpoint's 2xx histogram
// with slow observations and expects the shed hint to reflect the p50
// instead of the old hard-coded 1s. The endpoint labels are private to
// this test: histogram vec children are global per label set, so using
// a real endpoint name ("coverage") would make the expected p50 depend
// on how many 200s earlier tests in the package happened to serve.
func TestRetryAfterDerivedFromLatency(t *testing.T) {
	s := New(Config{})
	ep := s.endpoint("retrytest-p50")
	for i := 0; i < 100; i++ {
		ep.latency[classIdx(http.StatusOK)].Observe(4.2)
	}
	// All mass sits in the (1,5] bucket, so the interpolated p50 is the
	// bucket midpoint 3.0 → ceil 3.
	if got := ep.retryAfterSecs(); got != 3 {
		t.Fatalf("retry-after %d, want ceil(interpolated p50) = 3", got)
	}
	// Clamped at 30 even for pathological latency.
	ep2 := s.endpoint("retrytest-clamp")
	for i := 0; i < 100; i++ {
		ep2.latency[classIdx(http.StatusOK)].Observe(300)
	}
	if got := ep2.retryAfterSecs(); got != 30 {
		t.Fatalf("retry-after %d, want clamp 30", got)
	}
	// No traffic yet: conservative 1s.
	ep3 := s.endpoint("retrytest-cold")
	if got := ep3.retryAfterSecs(); got != 1 {
		t.Fatalf("retry-after %d with no data, want 1", got)
	}
}

// TestInflightGaugeReturnsToZero hammers an endpoint concurrently and
// expects the in-flight gauge to settle exactly back to its starting
// value — the atomic Add/Sub fix for the old read-modify-write race.
func TestInflightGaugeReturnsToZero(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxConcurrent: 32})
	before := obs.NewGauge("server.inflight").Value()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				resp, err := http.Get(ts.URL + "/v1/rules?nodes=64")
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
		}()
	}
	wg.Wait()
	if after := obs.NewGauge("server.inflight").Value(); after != before {
		t.Fatalf("inflight gauge drifted: before %v after %v", before, after)
	}
}

// TestAccessLogLine asserts one JSON access-log line per request,
// correlated with the response's trace ID and cache outcome.
func TestAccessLogLine(t *testing.T) {
	var buf syncBuffer
	_, ts := newTestServer(t, Config{
		AccessLog: slog.New(slog.NewJSONHandler(&buf, nil)),
	})
	resp, _ := postJSON(t, ts.URL+"/v1/coverage", `{"replicates":16,"sample_sizes":[3],"levels":[0.95]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	line := strings.TrimSpace(buf.String())
	var entry map[string]any
	if err := json.Unmarshal([]byte(line), &entry); err != nil {
		t.Fatalf("access log line is not JSON: %v\n%s", err, line)
	}
	for k, want := range map[string]any{
		"msg":      "request",
		"method":   "POST",
		"path":     "/v1/coverage",
		"endpoint": "coverage",
		"status":   float64(200),
		"cache":    "miss",
		"trace_id": resp.Header.Get("X-Trace-Id"),
	} {
		if entry[k] != want {
			t.Errorf("access log %s = %v, want %v", k, entry[k], want)
		}
	}
	if lat, ok := entry["latency_ms"].(float64); !ok || lat <= 0 {
		t.Errorf("access log latency_ms = %v, want > 0", entry["latency_ms"])
	}
}

// TestStatusWriterPassesFlusher asserts the instrumentation wrapper
// still exposes http.Flusher to handlers.
func TestStatusWriterPassesFlusher(t *testing.T) {
	rec := httptest.NewRecorder()
	sw := &statusWriter{ResponseWriter: rec, status: http.StatusOK}
	var w http.ResponseWriter = sw
	f, ok := w.(http.Flusher)
	if !ok {
		t.Fatal("statusWriter does not implement http.Flusher")
	}
	fmt.Fprint(sw, "x")
	f.Flush()
	if !rec.Flushed {
		t.Fatal("flush did not reach the underlying writer")
	}
	if sw.bytes != 1 {
		t.Fatalf("bytes counter %d, want 1", sw.bytes)
	}
}

// syncBuffer is a goroutine-safe bytes.Buffer for log capture.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}
