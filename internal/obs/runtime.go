package obs

import "runtime"

// Runtime gauges: a small Go-runtime profile (goroutines, heap, GC)
// refreshed by SampleRuntime. Every reader samples first: PromHandler
// and /debug/metrics on each request, NewManifest once per manifest.
var (
	gGoroutines   = NewGauge("runtime.goroutines")
	gHeapAlloc    = NewGauge("runtime.heap_alloc_bytes")
	gHeapSys      = NewGauge("runtime.heap_sys_bytes")
	gHeapObjects  = NewGauge("runtime.heap_objects")
	gGCCycles     = NewGauge("runtime.gc_cycles")
	gGCPauseTotal = NewGauge("runtime.gc_pause_total_seconds")
	gLastGCPause  = NewGauge("runtime.last_gc_pause_seconds")
	gNextGC       = NewGauge("runtime.next_gc_bytes")
)

// SampleRuntime refreshes the runtime.* gauges from the Go runtime. It
// calls runtime.ReadMemStats, which briefly stops the world — cheap at
// scrape cadence, not something for per-request paths.
func SampleRuntime() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gGoroutines.Set(float64(runtime.NumGoroutine()))
	gHeapAlloc.Set(float64(ms.HeapAlloc))
	gHeapSys.Set(float64(ms.HeapSys))
	gHeapObjects.Set(float64(ms.HeapObjects))
	gGCCycles.Set(float64(ms.NumGC))
	gGCPauseTotal.Set(float64(ms.PauseTotalNs) / 1e9)
	if ms.NumGC > 0 {
		gLastGCPause.Set(float64(ms.PauseNs[(ms.NumGC+255)%256]) / 1e9)
	}
	gNextGC.Set(float64(ms.NextGC))
}
