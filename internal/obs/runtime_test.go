package obs

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"
)

func TestSampleRuntimePopulatesGauges(t *testing.T) {
	SampleRuntime()
	if gGoroutines.Value() < 1 {
		t.Errorf("runtime.goroutines %v, want >= 1", gGoroutines.Value())
	}
	if gHeapAlloc.Value() <= 0 {
		t.Errorf("runtime.heap_alloc_bytes %v, want > 0", gHeapAlloc.Value())
	}
	if gNextGC.Value() <= 0 {
		t.Errorf("runtime.next_gc_bytes %v, want > 0", gNextGC.Value())
	}
}

// gcCyclesSoFar forces a collection and returns the runtime's GC count,
// a floor that any freshly sampled runtime.gc_cycles gauge must reach.
func gcCyclesSoFar() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.NumGC)
}

// TestDebugMetricsSamplesRuntime: /debug/metrics refreshes the runtime
// gauges on every read, as /metrics does, so its GC count is current
// without a background sampler.
func TestDebugMetricsSamplesRuntime(t *testing.T) {
	mux := http.NewServeMux()
	HandleDebug(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	n := gcCyclesSoFar()
	resp, err := http.Get(srv.URL + "/debug/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if got := snap.Gauges["runtime.gc_cycles"]; got < n {
		t.Errorf("/debug/metrics runtime.gc_cycles = %v, want >= %v", got, n)
	}
}

// TestNewManifestSamplesRuntime: a manifest's metrics carry runtime
// gauges sampled when it was assembled.
func TestNewManifestSamplesRuntime(t *testing.T) {
	n := gcCyclesSoFar()
	m := NewManifest("test", nil, nil, time.Now(), nil)
	if got := m.Metrics.Gauges["runtime.gc_cycles"]; got < n {
		t.Errorf("manifest runtime.gc_cycles = %v, want >= %v", got, n)
	}
}
