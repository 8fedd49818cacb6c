package server

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"testing"

	"nodevar/internal/sampling"
	"nodevar/internal/stats"
)

func TestIngestAndFleetStats(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	values := []float64{400, 410, 420, 430, 440}
	body := `{"fleet":"prod","samples":[`
	for i, v := range values {
		if i > 0 {
			body += ","
		}
		body += fmt.Sprintf(`{"node":"n%02d","seq":1,"watts":%g}`, i, v)
	}
	body += `]}`

	resp, b := postJSON(t, ts.URL+"/v1/ingest", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d: %s", resp.StatusCode, b)
	}
	var ir IngestResponse
	if err := json.Unmarshal(b, &ir); err != nil {
		t.Fatal(err)
	}
	if ir.Accepted != 5 || ir.Nodes != 5 || ir.Samples != 5 {
		t.Fatalf("ingest response %+v", ir)
	}

	// Retried batch: idempotent, same totals.
	resp, b = postJSON(t, ts.URL+"/v1/ingest", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("retry status %d: %s", resp.StatusCode, b)
	}
	if err := json.Unmarshal(b, &ir); err != nil {
		t.Fatal(err)
	}
	if ir.Accepted != 0 || ir.Duplicates != 5 || ir.Samples != 5 {
		t.Fatalf("retry response %+v", ir)
	}

	resp, b = getURL(t, ts.URL+"/v1/fleet/prod/stats")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats status %d: %s", resp.StatusCode, b)
	}
	var st FleetStatsResponse
	if err := json.Unmarshal(b, &st); err != nil {
		t.Fatal(err)
	}
	mean, sd := stats.MeanStdDev(values)
	if st.Source != liveSource {
		t.Fatalf("source %q, want %q", st.Source, liveSource)
	}
	if st.Mean != mean || st.StdDev != sd || st.Min != 400 || st.Max != 440 {
		t.Fatalf("stats %+v, want mean %g sd %g", st, mean, sd)
	}
	if st.CI == nil || st.CI.Confidence != 0.95 {
		t.Fatalf("stats CI %+v", st.CI)
	}
	if st.Window == nil || st.Window.Samples != 5 {
		t.Fatalf("stats window %+v", st.Window)
	}
	if len(st.Quantiles) != 8 {
		t.Fatalf("quantile keys %v", st.Quantiles)
	}
}

func TestFleetSampleSizeMatchesTwoPhase(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	values := make([]float64, 64)
	for i := range values {
		values[i] = 400 + 3*math.Sin(float64(i))
	}
	for i, v := range values {
		body := fmt.Sprintf(`{"fleet":"lrz-live","samples":[{"node":"n%03d","seq":1,"watts":%v}]}`, i, v)
		if resp, b := postJSON(t, ts.URL+"/v1/ingest", body); resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest %d: %s", resp.StatusCode, b)
		}
	}

	resp, b := getURL(t, ts.URL+"/v1/fleet/lrz-live/samplesize?accuracy=0.01&confidence=0.95&population=10000")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("samplesize status %d: %s", resp.StatusCode, b)
	}
	var sr FleetSampleSizeResponse
	if err := json.Unmarshal(b, &sr); err != nil {
		t.Fatal(err)
	}
	want, err := sampling.TwoPhase(values, 0.95, 0.01, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if sr.Recommended != want {
		t.Fatalf("live recommendation %d, two-phase batch %d", sr.Recommended, want)
	}
	if sr.Source != liveSource || sr.Nodes != 64 || sr.Samples != 64 {
		t.Fatalf("samplesize response %+v", sr)
	}
	if len(sr.Grid) != len(gridAccuracies) {
		t.Fatalf("grid %+v", sr.Grid)
	}
	mean, sd := stats.MeanStdDev(values)
	if sr.CV != sd/mean {
		t.Fatalf("live CV %v, batch CV %v", sr.CV, sd/mean)
	}
}

func TestFleetEndpointsErrorPaths(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	cases := []struct {
		name   string
		body   string
		status int
		code   string
	}{
		{"malformed json", `{"fleet":`, http.StatusBadRequest, codeBadJSON},
		{"unknown field", `{"fleet":"f","extra":1,"samples":[]}`, http.StatusBadRequest, codeBadJSON},
		{"nan watts literal", `{"fleet":"f","samples":[{"node":"n","seq":1,"watts":NaN}]}`, http.StatusBadRequest, codeBadJSON},
		{"empty batch", `{"fleet":"f","samples":[]}`, http.StatusBadRequest, codeBadRequest},
		{"missing fleet", `{"samples":[{"node":"n","seq":1,"watts":400}]}`, http.StatusBadRequest, codeBadRequest},
		{"negative watts", `{"fleet":"f","samples":[{"node":"n","seq":1,"watts":-4}]}`, http.StatusBadRequest, codeBadRequest},
		{"zero seq", `{"fleet":"f","samples":[{"node":"n","seq":0,"watts":400}]}`, http.StatusBadRequest, codeBadRequest},
		{"duplicate node", `{"fleet":"f","samples":[{"node":"n","seq":1,"watts":400},{"node":"n","seq":2,"watts":401}]}`, http.StatusBadRequest, codeBadRequest},
		{"batch too large", ingestBody("f", ingestMaxBatch+1), http.StatusBadRequest, codeBadRequest},
	}
	for _, tc := range cases {
		resp, b := postJSON(t, ts.URL+"/v1/ingest", tc.body)
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, resp.StatusCode, tc.status, b)
			continue
		}
		if code := decodeAPIError(t, b); code != tc.code {
			t.Errorf("%s: code %q, want %q", tc.name, code, tc.code)
		}
	}

	// None of the rejected batches may have created a fleet.
	resp, b := getURL(t, ts.URL+"/v1/fleet/f/stats")
	if resp.StatusCode != http.StatusNotFound || decodeAPIError(t, b) != codeNotFound {
		t.Fatalf("rejected batches leaked a fleet: %d %s", resp.StatusCode, b)
	}

	// A mid-batch invalid sample must leave an existing fleet untouched.
	good := `{"fleet":"g","samples":[{"node":"a","seq":1,"watts":400},{"node":"b","seq":1,"watts":410}]}`
	if resp, b := postJSON(t, ts.URL+"/v1/ingest", good); resp.StatusCode != http.StatusOK {
		t.Fatalf("seed batch %d: %s", resp.StatusCode, b)
	}
	bad := `{"fleet":"g","samples":[{"node":"c","seq":1,"watts":420},{"node":"d","seq":1,"watts":-1}]}`
	if resp, _ := postJSON(t, ts.URL+"/v1/ingest", bad); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad batch status %d", resp.StatusCode)
	}
	_, b = getURL(t, ts.URL+"/v1/fleet/g/stats")
	var st FleetStatsResponse
	if err := json.Unmarshal(b, &st); err != nil {
		t.Fatal(err)
	}
	if st.Samples != 2 || st.Nodes != 2 {
		t.Fatalf("rejected batch mutated fleet: %+v", st)
	}

	// Unknown fleet across all three read endpoints; invalid params.
	for _, path := range []string{"/v1/fleet/nope/stats", "/v1/fleet/nope/samplesize", "/v1/fleet/nope/outliers"} {
		resp, b := getURL(t, ts.URL+path)
		if resp.StatusCode != http.StatusNotFound || decodeAPIError(t, b) != codeNotFound {
			t.Errorf("%s: %d %s", path, resp.StatusCode, b)
		}
	}
	for _, path := range []string{
		"/v1/fleet/g/stats?confidence=2",
		"/v1/fleet/g/samplesize?accuracy=0",
		"/v1/fleet/g/samplesize?confidence=x",
		"/v1/fleet/g/samplesize?population=-1",
		"/v1/fleet/g/outliers?z=-1",
	} {
		resp, b := getURL(t, ts.URL+path)
		if resp.StatusCode != http.StatusBadRequest || decodeAPIError(t, b) != codeBadRequest {
			t.Errorf("%s: %d %s", path, resp.StatusCode, b)
		}
	}

	// Insufficient data: one sample cannot support a plan.
	one := `{"fleet":"solo","samples":[{"node":"a","seq":1,"watts":400}]}`
	if resp, _ := postJSON(t, ts.URL+"/v1/ingest", one); resp.StatusCode != http.StatusOK {
		t.Fatal("solo ingest failed")
	}
	resp, b = getURL(t, ts.URL+"/v1/fleet/solo/samplesize")
	if resp.StatusCode != http.StatusConflict || decodeAPIError(t, b) != codeInsufficientData {
		t.Fatalf("one-sample samplesize: %d %s", resp.StatusCode, b)
	}
}

func TestFleetOutliersEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for i := 0; i < 30; i++ {
		body := fmt.Sprintf(`{"fleet":"o","samples":[{"node":"n%02d","seq":1,"watts":%g}]}`, i, 400+0.1*float64(i%5))
		if resp, _ := postJSON(t, ts.URL+"/v1/ingest", body); resp.StatusCode != http.StatusOK {
			t.Fatal("ingest failed")
		}
	}
	hot := `{"fleet":"o","samples":[{"node":"vid-outlier","seq":1,"watts":480}]}`
	if resp, _ := postJSON(t, ts.URL+"/v1/ingest", hot); resp.StatusCode != http.StatusOK {
		t.Fatal("hot ingest failed")
	}
	resp, b := getURL(t, ts.URL+"/v1/fleet/o/outliers?z=3")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("outliers status %d: %s", resp.StatusCode, b)
	}
	var or FleetOutliersResponse
	if err := json.Unmarshal(b, &or); err != nil {
		t.Fatal(err)
	}
	if or.Degraded || len(or.Outliers) == 0 || or.Outliers[0].Node != "vid-outlier" {
		t.Fatalf("outliers response %+v", or)
	}
	// Outliers must serialize as [] (not null) when empty.
	resp, b = getURL(t, ts.URL+"/v1/fleet/o/outliers?z=1000")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("high-z outliers status %d", resp.StatusCode)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(b, &raw); err != nil {
		t.Fatal(err)
	}
	if string(raw["outliers"]) != "[]" {
		t.Fatalf("empty outliers serialized as %s", raw["outliers"])
	}
}

// Watts above the 1 MW per-node ceiling are rejected at the door: a
// batch at 1e200 W would overflow the fleet's sum of squares and leave
// every later stats read answering NaN. A fleet at the ceiling itself
// still reports finite statistics.
func TestIngestWattsCeiling(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	good := `{"fleet":"g","samples":[{"node":"a","seq":1,"watts":400},{"node":"b","seq":1,"watts":410}]}`
	if resp, b := postJSON(t, ts.URL+"/v1/ingest", good); resp.StatusCode != http.StatusOK {
		t.Fatalf("seed batch %d: %s", resp.StatusCode, b)
	}
	huge := `{"fleet":"g","samples":[{"node":"c","seq":1,"watts":1e200},{"node":"d","seq":1,"watts":2e200}]}`
	resp, b := postJSON(t, ts.URL+"/v1/ingest", huge)
	if resp.StatusCode != http.StatusBadRequest || decodeAPIError(t, b) != codeBadRequest {
		t.Fatalf("overflowing batch: %d %s", resp.StatusCode, b)
	}
	resp, b = getURL(t, ts.URL+"/v1/fleet/g/stats")
	var st FleetStatsResponse
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats after rejected batch: %d %s", resp.StatusCode, b)
	}
	if err := json.Unmarshal(b, &st); err != nil {
		t.Fatal(err)
	}
	if st.Samples != 2 || st.Nodes != 2 || st.Max != 410 {
		t.Fatalf("rejected batch mutated fleet: %+v", st)
	}

	ceiling := `{"fleet":"top","samples":[{"node":"a","seq":1,"watts":1e6},{"node":"b","seq":1,"watts":1e6},{"node":"c","seq":1,"watts":5e5}]}`
	if resp, b := postJSON(t, ts.URL+"/v1/ingest", ceiling); resp.StatusCode != http.StatusOK {
		t.Fatalf("batch at the ceiling: %d %s", resp.StatusCode, b)
	}
	for _, path := range []string{"/v1/fleet/top/stats", "/v1/fleet/top/samplesize"} {
		if resp, b := getURL(t, ts.URL+path); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s at the ceiling: %d %s", path, resp.StatusCode, b)
		}
	}
	_, b = getURL(t, ts.URL+"/v1/fleet/top/stats")
	st = FleetStatsResponse{}
	if err := json.Unmarshal(b, &st); err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{st.Mean, st.StdDev, st.CV} {
		if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
			t.Fatalf("stats at the ceiling not finite and positive: %+v", st)
		}
	}
}
