package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"nodevar/internal/dist"
	"nodevar/internal/memo"
)

// distBody is a small fast custom-pilot study used by the dist-wiring
// tests.
const distBody = `{"pilot_data":[201,205,199,210,203,207,198,212],"population":200,"replicates":400,"sample_sizes":[4,6],"levels":[0.9],"seed":77}`

func newDistFrontend(t *testing.T, workers ...string) *dist.Frontend {
	t.Helper()
	fe, err := dist.NewFrontend(dist.Config{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	return fe
}

// TestCoverageViaDistByteIdenticalToLocal is the serving-layer half of
// the byte-identity contract: the same request answered through a
// worker fleet and computed in-process produces the same response
// bytes — no degraded flag, no drift in a single float bit.
func TestCoverageViaDistByteIdenticalToLocal(t *testing.T) {
	_, localTS := newTestServer(t, Config{})
	_, localBody := postJSON(t, localTS.URL+"/v1/coverage", distBody)

	worker := httptest.NewServer(dist.NewWorker(dist.WorkerConfig{}).Handler())
	defer worker.Close()
	_, distTS := newTestServer(t, Config{Dist: newDistFrontend(t, worker.URL)})
	resp, remoteBody := postJSON(t, distTS.URL+"/v1/coverage", distBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("dist-routed request: %d\n%s", resp.StatusCode, remoteBody)
	}
	if string(remoteBody) != string(localBody) {
		t.Fatalf("dist-routed body differs from local body:\n%s\nvs\n%s", remoteBody, localBody)
	}
	if resp.Header.Get("X-Cache") != string(memo.Miss) {
		t.Fatalf("X-Cache %q, want miss", resp.Header.Get("X-Cache"))
	}

	// Second request: served from the frontend's L1 without touching the
	// fleet, still byte-identical.
	resp, cachedBody := postJSON(t, distTS.URL+"/v1/coverage", distBody)
	if resp.Header.Get("X-Cache") != string(memo.Hit) {
		t.Fatalf("second request X-Cache %q, want hit", resp.Header.Get("X-Cache"))
	}
	if string(cachedBody) != string(localBody) {
		t.Fatal("cached dist-routed body differs from local body")
	}
}

// TestCoverageDistDegradedFlaggedAndUncached pins the degraded-mode
// contract end to end: with every worker dead the endpoint still
// answers 200 with the exact points, flags the response, and does not
// cache it — so the flag disappears as soon as the fleet returns.
func TestCoverageDistDegradedFlaggedAndUncached(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()

	_, ts := newTestServer(t, Config{Dist: newDistFrontend(t, deadURL)})
	resp, body := postJSON(t, ts.URL+"/v1/coverage", distBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded request: %d\n%s", resp.StatusCode, body)
	}
	var cr CoverageResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatal(err)
	}
	if !cr.Degraded {
		t.Fatal("all-workers-dead response not flagged degraded")
	}
	if len(cr.Points) == 0 {
		t.Fatal("degraded response carries no points")
	}

	// Compare against a plain local server: identical except the flag.
	_, localTS := newTestServer(t, Config{})
	_, localBody := postJSON(t, localTS.URL+"/v1/coverage", distBody)
	var local CoverageResponse
	if err := json.Unmarshal(localBody, &local); err != nil {
		t.Fatal(err)
	}
	if len(local.Points) != len(cr.Points) {
		t.Fatalf("%d degraded points vs %d local", len(cr.Points), len(local.Points))
	}
	for i := range local.Points {
		if local.Points[i] != cr.Points[i] {
			t.Fatalf("point %d: degraded %+v != local %+v", i, cr.Points[i], local.Points[i])
		}
	}

	// Degraded results must not be cached: the retry recomputes.
	resp, _ = postJSON(t, ts.URL+"/v1/coverage", distBody)
	if resp.Header.Get("X-Cache") != string(memo.Miss) {
		t.Fatalf("post-degraded X-Cache %q, want miss (degraded result was cached)", resp.Header.Get("X-Cache"))
	}
}
