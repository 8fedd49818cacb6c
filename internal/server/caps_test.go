package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"testing"
)

// ingestBody renders a /v1/ingest batch of n distinct nodes.
func ingestBody(fleet string, n int) string {
	req := IngestRequest{Fleet: fleet, Samples: make([]IngestSample, n)}
	for i := range req.Samples {
		req.Samples[i] = IngestSample{Node: "n" + strconv.Itoa(i), Seq: 1, Watts: 400 + float64(i%7)}
	}
	b, err := json.Marshal(req)
	if err != nil {
		panic(err)
	}
	return string(b)
}

// jsonList renders n copies of v as a JSON array.
func jsonList(v string, n int) string {
	return "[" + strings.TrimSuffix(strings.Repeat(v+",", n), ",") + "]"
}

// TestAdmissionCaps shows every request-size cap answering cap+1 with a
// 400 whose message names the cap, before any study starts or any
// sample is applied.
func TestAdmissionCaps(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	s.coverageGate = func(context.Context) error {
		t.Error("a study started for a request past a cap")
		return nil
	}
	cases := []struct {
		name, path, body string
		limit            int
	}{
		{"maxReplicates", "/v1/coverage", fmt.Sprintf(`{"replicates":%d}`, maxReplicates+1), maxReplicates},
		{"maxPopulation", "/v1/coverage", fmt.Sprintf(`{"population":%d}`, maxPopulation+1), maxPopulation},
		{"maxPilotData", "/v1/coverage",
			fmt.Sprintf(`{"population":100000,"pilot_data":%s}`, jsonList("400", maxPilotData+1)), maxPilotData},
		{"maxSampleSizes", "/v1/coverage", fmt.Sprintf(`{"sample_sizes":%s}`, jsonList("5", maxSampleSizes+1)), maxSampleSizes},
		{"maxLevels", "/v1/coverage", fmt.Sprintf(`{"levels":%s}`, jsonList("0.9", maxLevels+1)), maxLevels},
		{"maxDistortionNodes", "/v1/distortion", fmt.Sprintf(`{"nodes":%d}`, maxDistortionNodes+1), maxDistortionNodes},
		{"ingestMaxBatch", "/v1/ingest", ingestBody("capped", ingestMaxBatch+1), ingestMaxBatch},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			misses := mCacheMisses.Value()
			resp, body := postJSON(t, ts.URL+tc.path, tc.body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400: %.200s", resp.StatusCode, body)
			}
			var eb errorBody
			if err := json.Unmarshal(body, &eb); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(eb.Error.Message, strconv.Itoa(tc.limit)) {
				t.Errorf("message %q does not name the cap %d", eb.Error.Message, tc.limit)
			}
			if got := mCacheMisses.Value(); got != misses {
				t.Errorf("server.cache.misses moved %d -> %d", misses, got)
			}
		})
	}

	if resp, b := getURL(t, ts.URL+"/v1/fleet/capped/stats"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("an over-cap batch created its fleet: %d %s", resp.StatusCode, b)
	}
	resp, b := postJSON(t, ts.URL+"/v1/ingest", ingestBody("capped", ingestMaxBatch))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("a batch of exactly %d: status %d: %s", ingestMaxBatch, resp.StatusCode, b)
	}
	var ir IngestResponse
	if err := json.Unmarshal(b, &ir); err != nil {
		t.Fatal(err)
	}
	if ir.Accepted != ingestMaxBatch {
		t.Fatalf("accepted %d of a %d-sample batch", ir.Accepted, ingestMaxBatch)
	}
}
