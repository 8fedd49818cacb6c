package stats

import (
	"testing"
	"testing/quick"

	"nodevar/internal/rng"
)

func TestHistogramBasic(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	h := NewHistogram(xs, 5)
	if h.Total != 10 {
		t.Fatalf("Total = %d", h.Total)
	}
	for i, c := range h.Counts {
		if c != 2 {
			t.Errorf("bin %d count %d, want 2", i, c)
		}
	}
}

func TestHistogramMaxLandsInLastBin(t *testing.T) {
	xs := []float64{0, 10}
	h := NewHistogram(xs, 10)
	if h.Counts[9] != 1 {
		t.Errorf("max did not land in last bin: %v", h.Counts)
	}
	if h.Counts[0] != 1 {
		t.Errorf("min did not land in first bin: %v", h.Counts)
	}
}

func TestHistogramDegenerateData(t *testing.T) {
	xs := []float64{5, 5, 5}
	h := NewHistogram(xs, 4)
	total := 0
	for _, c := range h.Counts {
		total += c
	}
	if total != 3 {
		t.Errorf("constant data lost observations: %v", h.Counts)
	}
}

func TestHistogramBinGeometry(t *testing.T) {
	h := NewHistogram([]float64{0, 10}, 5)
	lo, hi := h.BinEdges(2)
	if lo != 4 || hi != 6 {
		t.Errorf("BinEdges(2) = (%v, %v)", lo, hi)
	}
}

// Property: histogram counts always sum to the number of observations.
func TestQuickHistogramMassConservation(t *testing.T) {
	f := func(seed uint64, binsRaw, nRaw uint8) bool {
		bins := 1 + int(binsRaw%30)
		n := 1 + int(nRaw)
		r := rng.New(seed)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.Normal(0, 100)
		}
		h := NewHistogram(xs, bins)
		sum := 0
		for _, c := range h.Counts {
			sum += c
		}
		return sum == n && h.Total == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
