package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"testing"

	"nodevar/internal/systems"
)

func TestMetersList(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := getURL(t, ts.URL+"/v1/meters")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var mr MetersResponse
	if err := json.Unmarshal(body, &mr); err != nil {
		t.Fatal(err)
	}
	if len(mr.Meters) < 4 {
		t.Fatalf("got %d presets, want >= 4", len(mr.Meters))
	}
	want := map[string]string{
		"reference": "periodic",
		"revenue":   "periodic",
		"windowed":  "windowed",
		"occ":       "occ",
	}
	for _, m := range mr.Meters {
		if arch, ok := want[m.Key]; ok && m.Architecture != arch {
			t.Errorf("%s architecture = %q, want %q", m.Key, m.Architecture, arch)
		}
		if m.Description == "" {
			t.Errorf("%s has no description", m.Key)
		}
	}
}

func TestDistortionEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := `{"system":"colosse","nodes":16,"pilot_size":8,"meters":["windowed","occ"]}`
	resp, body := postJSON(t, ts.URL+"/v1/distortion", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Cache"); got != "miss" {
		t.Errorf("first request X-Cache = %q, want miss", got)
	}
	var dr DistortionResponse
	if err := json.Unmarshal(body, &dr); err != nil {
		t.Fatal(err)
	}
	if dr.Request.Seed != 2015 || dr.Request.System != "colosse" {
		t.Errorf("normalized request not echoed: %+v", dr.Request)
	}
	if dr.TrueAvgWatts <= 0 {
		t.Errorf("true average %v, want > 0", dr.TrueAvgWatts)
	}
	if dr.Reference.SampleSize <= 0 || dr.Reference.SampleSizeDelta != 0 {
		t.Errorf("reference baseline: n=%d delta=%d", dr.Reference.SampleSize, dr.Reference.SampleSizeDelta)
	}
	if len(dr.Models) != 2 {
		t.Fatalf("got %d models, want 2", len(dr.Models))
	}
	names := map[string]bool{}
	for _, md := range dr.Models {
		names[md.Name] = true
		if len(md.Levels) != 3 {
			t.Errorf("%s has %d levels, want 3", md.Name, len(md.Levels))
		}
		if md.MeasuredCV <= 0 {
			t.Errorf("%s measured CV = %v, want > 0", md.Name, md.MeasuredCV)
		}
	}
	if !names["windowed"] || !names["occ"] {
		t.Errorf("model names = %v", names)
	}

	// Same request again: cache hit with byte-identical body.
	resp2, body2 := postJSON(t, ts.URL+"/v1/distortion", req)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second status = %d", resp2.StatusCode)
	}
	if got := resp2.Header.Get("X-Cache"); got != "hit" {
		t.Errorf("second request X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(body, body2) {
		t.Error("cached response differs from computed response")
	}

	// A different seed is a different study.
	resp3, body3 := postJSON(t, ts.URL+"/v1/distortion",
		`{"system":"colosse","nodes":16,"pilot_size":8,"meters":["windowed","occ"],"seed":7}`)
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("reseeded status = %d: %s", resp3.StatusCode, body3)
	}
	if bytes.Equal(body, body3) {
		t.Error("different seed produced identical bytes")
	}
}

func TestDistortionEntropyShiftsPower(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	base := `{"system":"lrz","nodes":8,"pilot_size":4,"meters":["occ"]}`
	resp, body := postJSON(t, ts.URL+"/v1/distortion", base)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var full DistortionResponse
	if err := json.Unmarshal(body, &full); err != nil {
		t.Fatal(err)
	}
	resp2, body2 := postJSON(t, ts.URL+"/v1/distortion",
		`{"system":"lrz","nodes":8,"pilot_size":4,"meters":["occ"],"entropy":0.0}`)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("entropy status = %d: %s", resp2.StatusCode, body2)
	}
	var low DistortionResponse
	if err := json.Unmarshal(body2, &low); err != nil {
		t.Fatal(err)
	}
	if !(low.TrueAvgWatts < full.TrueAvgWatts) {
		t.Errorf("zero-entropy truth %.1f W not below full-entropy %.1f W",
			low.TrueAvgWatts, full.TrueAvgWatts)
	}
}

func TestDistortionValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name, body, code string
	}{
		{"unknown system", `{"system":"nope"}`, codeInvalidPlan},
		{"nodes over cap", fmt.Sprintf(`{"nodes":%d}`, maxDistortionNodes+1), codeInvalidPlan},
		{"one node", `{"nodes":1}`, codeInvalidPlan},
		{"pilot exceeds nodes", `{"nodes":8,"pilot_size":9}`, codeInvalidPlan},
		{"entropy out of range", `{"entropy":1.5}`, codeInvalidPlan},
		{"entropy nan rejected", `{"entropy":-0.1}`, codeInvalidPlan},
		{"unknown meter", `{"meters":["smartplug"]}`, codeInvalidPlan},
		{"duplicate meter", `{"meters":["occ","occ"]}`, codeInvalidPlan},
		{"unknown field", `{"metres":["occ"]}`, codeBadJSON},
		{"trailing garbage", `{} {}`, codeBadJSON},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postJSON(t, ts.URL+"/v1/distortion", tc.body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status = %d: %s", resp.StatusCode, body)
			}
			if code := decodeAPIError(t, body); code != tc.code {
				t.Errorf("code = %q, want %q", code, tc.code)
			}
		})
	}
}

// TestDistortionEveryPresetSystem posts every catalog system: each must
// either run (200) or be refused as a plan the simulator cannot build
// (400 invalid_plan), never fail inside the study with a 500.
func TestDistortionEveryPresetSystem(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, spec := range systems.All() {
		t.Run(spec.Key, func(t *testing.T) {
			req := fmt.Sprintf(`{"system":%q,"nodes":8,"pilot_size":4,"meters":["occ"]}`, spec.Key)
			resp, body := postJSON(t, ts.URL+"/v1/distortion", req)
			switch resp.StatusCode {
			case http.StatusOK:
			case http.StatusBadRequest:
				if code := decodeAPIError(t, body); code != codeInvalidPlan {
					t.Errorf("code = %q, want %q", code, codeInvalidPlan)
				}
			default:
				t.Fatalf("status = %d: %s", resp.StatusCode, body)
			}
		})
	}
}
