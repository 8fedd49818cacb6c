package systems

import (
	"testing"

	"nodevar/internal/obs"
)

// cacheCounters reads the calibration-cache metrics as they appear in
// the default registry's snapshot — the same view the run manifest's
// metrics and /debug/metrics export.
func cacheCounters(t *testing.T) (hits, misses, resets, evictions int64) {
	t.Helper()
	c := obs.Default().Snapshot().Counters
	return c["systems.calibration_cache.hits"],
		c["systems.calibration_cache.misses"],
		c["systems.calibration_cache.resets"],
		c["systems.calibration_cache.evictions"]
}

// TestCalibrationCacheMetrics asserts the cache's hit/miss/reset/
// eviction accounting through the metrics registry. Counters are
// process-cumulative, so everything is checked as deltas.
func TestCalibrationCacheMetrics(t *testing.T) {
	ResetCalibrationCache() // start from an empty cache
	hits0, misses0, resets0, _ := cacheCounters(t)

	if _, _, err := CalibratedTrace(LCSC, 320); err != nil {
		t.Fatal(err)
	}
	hits, misses, _, _ := cacheCounters(t)
	if misses != misses0+1 {
		t.Errorf("cold call: misses = %d, want %d", misses, misses0+1)
	}
	if hits != hits0 {
		t.Errorf("cold call: hits = %d, want %d", hits, hits0)
	}

	if _, _, err := CalibratedTrace(LCSC, 320); err != nil {
		t.Fatal(err)
	}
	hits, misses, _, _ = cacheCounters(t)
	if hits != hits0+1 {
		t.Errorf("warm call: hits = %d, want %d", hits, hits0+1)
	}
	if misses != misses0+1 {
		t.Errorf("warm call: misses = %d, want %d (no new fit)", misses, misses0+1)
	}

	// A different resolution is a different key: another miss.
	if _, _, err := CalibratedTrace(LCSC, 330); err != nil {
		t.Fatal(err)
	}
	if _, misses, _, _ = cacheCounters(t); misses != misses0+2 {
		t.Errorf("second key: misses = %d, want %d", misses, misses0+2)
	}

	// Reset: one reset, and both live entries evicted.
	_, _, _, evBefore := cacheCounters(t)
	ResetCalibrationCache()
	_, _, resets, evictions := cacheCounters(t)
	if resets != resets0+1 {
		t.Errorf("resets = %d, want %d", resets, resets0+1)
	}
	if got := evictions - evBefore; got != 2 {
		t.Errorf("evictions on reset = %d, want 2", got)
	}

	// The evicted key must fit again: a fresh miss, not a hit.
	if _, _, err := CalibratedTrace(LCSC, 320); err != nil {
		t.Fatal(err)
	}
	hits, misses, _, _ = cacheCounters(t)
	if misses != misses0+3 {
		t.Errorf("post-reset call: misses = %d, want %d", misses, misses0+3)
	}
	if hits != hits0+1 {
		t.Errorf("post-reset call: hits = %d, want %d", hits, hits0+1)
	}
}
