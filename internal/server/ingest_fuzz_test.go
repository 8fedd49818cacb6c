package server

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"

	"nodevar/internal/fleet"
)

// FuzzIngestDecode drives the /v1/ingest decode-and-validate path with
// arbitrary bodies: it must never panic, and any batch it accepts must
// apply cleanly to a fresh registry with every sample accounted for
// (accepted + duplicates == batch size, fleet state consistent and
// encodable, so no accepted watts value can overflow the moments).
// Rejected input must never create or mutate a fleet.
func FuzzIngestDecode(f *testing.F) {
	seeds := []string{
		`{"fleet":"prod","samples":[{"node":"n1","seq":1,"watts":415.2}]}`,
		`{"fleet":"prod","samples":[]}`,
		`{"fleet":"","samples":[{"node":"n1","seq":1,"watts":1}]}`,
		`{"fleet":"f","samples":[{"node":"n1","seq":0,"watts":1}]}`,
		`{"fleet":"f","samples":[{"node":"n1","seq":1,"watts":-3}]}`,
		`{"fleet":"f","samples":[{"node":"n1","seq":1,"watts":0}]}`,
		`{"fleet":"f","samples":[{"node":"n1","seq":1,"watts":NaN}]}`,
		`{"fleet":"f","samples":[{"node":"n1","seq":1,"watts":1e999}]}`,
		`{"fleet":"f","samples":[{"node":"a","seq":1,"watts":1e200},{"node":"b","seq":1,"watts":2e200}]}`,
		`{"fleet":"f","samples":[{"node":"a","seq":1,"watts":1},{"node":"a","seq":2,"watts":2}]}`,
		`{"fleet":"f","samples":[{"node":"a b","seq":1,"watts":1}]}`,
		`{"fleet":"f","extra":true,"samples":[{"node":"n","seq":1,"watts":1}]}`,
		`{"fleet":"f","samples":[{"node":"n","seq":18446744073709551615,"watts":1}]}`,
		`[1,2,3]`,
		`{"fleet":`,
		`null`,
		``,
		"\x00\xff garbage",
		`{"fleet":"` + strings.Repeat("x", 200) + `","samples":[{"node":"n","seq":1,"watts":1}]}`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, body string) {
		r := httptest.NewRequest("POST", "/v1/ingest", strings.NewReader(body))
		var req IngestRequest
		if err := decodeJSON(r, &req); err != nil {
			return // rejected at the JSON layer: 400 bad_json, no state
		}
		samples, err := validateIngest(&req)
		if err != nil {
			return // rejected at the validation layer: 400, no state
		}
		// Accepted input must apply cleanly and account for every sample.
		reg := fleet.NewRegistry(4, fleet.Config{})
		res, err := reg.Ingest(req.Fleet, samples)
		if err != nil {
			t.Fatalf("validated batch rejected by registry: %v\nbody: %q", err, body)
		}
		if res.Accepted+res.Duplicates != len(samples) {
			t.Fatalf("accepted %d + duplicates %d != batch %d", res.Accepted, res.Duplicates, len(samples))
		}
		if res.Duplicates != 0 {
			t.Fatalf("fresh fleet reported %d duplicates", res.Duplicates)
		}
		fl := reg.Get(req.Fleet)
		if fl == nil {
			t.Fatal("accepted batch did not create its fleet")
		}
		st := fl.Snapshot(0.95)
		if st.Samples != uint64(res.Accepted) || st.Nodes != len(samples) {
			t.Fatalf("state %+v inconsistent with result %+v", st, res)
		}
		if st.Samples > 0 && (st.Mean < st.Min || st.Mean > st.Max) {
			t.Fatalf("corrupt moments: mean %g outside [%g, %g]", st.Mean, st.Min, st.Max)
		}
		if _, err := json.Marshal(st); err != nil {
			t.Fatalf("accepted batch leaves unencodable stats: %v\nbody: %q", err, body)
		}
	})
}
