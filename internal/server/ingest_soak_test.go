package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"

	"nodevar/internal/rng"
)

// TestIngestConcurrentSoak hammers one fleet through the real HTTP
// stack: K writers streaming disjoint node sets with increasing
// sequence numbers while M readers poll every fleet read endpoint.
// Under -race (make check) this is the serving layer's
// torn-snapshot and data-race check. Invariants: no 5xx, snapshots
// internally consistent (mean within [min, max], CI centered on the
// mean), sample counts monotone per reader, and the final count equals
// exactly the number of distinct samples written.
func TestIngestConcurrentSoak(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxConcurrent: 256})

	const (
		writers = 8
		readers = 4
		rounds  = 40
		perNode = 5 // nodes per writer
	)
	client := ts.Client()
	var wrote atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rnd := rng.New(uint64(w + 100))
			for seq := 1; seq <= rounds; seq++ {
				body := `{"fleet":"soak","samples":[`
				for n := 0; n < perNode; n++ {
					if n > 0 {
						body += ","
					}
					body += fmt.Sprintf(`{"node":"w%02d-n%02d","seq":%d,"watts":%g}`,
						w, n, seq, 380+40*rnd.Float64())
				}
				body += `]}`
				resp, b := postJSON(t, ts.URL+"/v1/ingest", body)
				if resp.StatusCode != http.StatusOK {
					t.Errorf("writer %d: status %d: %s", w, resp.StatusCode, b)
					return
				}
				var ir IngestResponse
				if err := json.Unmarshal(b, &ir); err != nil {
					t.Error(err)
					return
				}
				if ir.Accepted != perNode || ir.Duplicates != 0 {
					t.Errorf("writer %d seq %d: %+v", w, seq, ir)
					return
				}
				wrote.Add(uint64(ir.Accepted))
			}
		}(w)
	}

	done := make(chan struct{})
	for m := 0; m < readers; m++ {
		wg.Add(1)
		go func(m int) {
			defer wg.Done()
			var lastSamples uint64
			for {
				select {
				case <-done:
					return
				default:
				}
				resp, err := client.Get(ts.URL + "/v1/fleet/soak/stats")
				if err != nil {
					t.Errorf("reader %d: %v", m, err)
					return
				}
				var st FleetStatsResponse
				err = json.NewDecoder(resp.Body).Decode(&st)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusNotFound:
					continue // no writer has landed yet
				case http.StatusOK:
				default:
					t.Errorf("reader %d: stats status %d", m, resp.StatusCode)
					return
				}
				if err != nil {
					t.Errorf("reader %d: %v", m, err)
					return
				}
				if st.Samples < lastSamples {
					t.Errorf("reader %d: samples went backwards %d -> %d", m, lastSamples, st.Samples)
					return
				}
				lastSamples = st.Samples
				if st.Mean < st.Min || st.Mean > st.Max {
					t.Errorf("reader %d: torn snapshot mean %g outside [%g, %g]", m, st.Mean, st.Min, st.Max)
					return
				}
				if st.CI != nil && st.CI.Center != st.Mean {
					t.Errorf("reader %d: CI center %g != mean %g from same snapshot", m, st.CI.Center, st.Mean)
					return
				}
				// The other read endpoints must never 5xx mid-stream.
				for _, path := range []string{"/v1/fleet/soak/outliers?z=2", "/v1/fleet/soak/samplesize?population=10000"} {
					r2, err := client.Get(ts.URL + path)
					if err != nil {
						t.Errorf("reader %d: %v", m, err)
						return
					}
					r2.Body.Close()
					if r2.StatusCode >= 500 {
						t.Errorf("reader %d: %s -> %d", m, path, r2.StatusCode)
						return
					}
				}
			}
		}(m)
	}

	// Close readers only after writers finish so readers observe the
	// final state at least once.
	writersDone := make(chan struct{})
	go func() {
		defer close(writersDone)
		// Writers are the first `writers` Adds on wg; poll via counter.
		for wrote.Load() < uint64(writers*rounds*perNode) {
			select {
			case <-done:
				return
			default:
			}
		}
	}()
	<-writersDone
	close(done)
	wg.Wait()

	resp, b := getURL(t, ts.URL+"/v1/fleet/soak/stats")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("final stats %d: %s", resp.StatusCode, b)
	}
	var st FleetStatsResponse
	if err := json.Unmarshal(b, &st); err != nil {
		t.Fatal(err)
	}
	if st.Samples != uint64(writers*rounds*perNode) {
		t.Fatalf("final samples %d, want %d", st.Samples, writers*rounds*perNode)
	}
	if st.Nodes != writers*perNode || st.Duplicates != 0 {
		t.Fatalf("final state %+v", st)
	}
}
