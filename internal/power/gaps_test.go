package power

import (
	"math"
	"testing"
)

// gapRampTrace returns n+1 samples at 1 s spacing with power base+slope*t.
func gapRampTrace(t *testing.T, n int, base, slope float64) *Trace {
	t.Helper()
	samples := make([]Sample, n+1)
	for i := range samples {
		samples[i] = Sample{Time: float64(i), Power: Watts(base + slope*float64(i))}
	}
	tr, err := NewTrace(samples)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// dropRange removes the samples with Time in [lo, hi] and returns the
// gapped trace.
func dropRange(t *testing.T, tr *Trace, lo, hi float64) *Trace {
	t.Helper()
	var out []Sample
	for _, s := range tr.Samples() {
		if s.Time >= lo && s.Time <= hi {
			continue
		}
		out = append(out, s)
	}
	nt, err := NewTrace(out)
	if err != nil {
		t.Fatal(err)
	}
	return nt
}

func TestTolerantMatchesFastPathWithoutGaps(t *testing.T) {
	tr := gapRampTrace(t, 100, 100, 2)
	for _, w := range [][2]float64{{0, 100}, {3.5, 77.25}, {10, 10}, {99, 100}} {
		want, werr := tr.EnergyBetween(w[0], w[1])
		got, q, err := tr.EnergyBetweenTolerant(w[0], w[1], 1.5)
		if (err == nil) != (werr == nil) {
			t.Fatalf("window %v: err %v vs %v", w, err, werr)
		}
		if got != want {
			t.Errorf("window %v: tolerant energy %v != fast-path %v", w, got, want)
		}
		if q.Gaps != 0 || q.Dropped != 0 || q.Completeness != 1 {
			t.Errorf("window %v: quality %+v not complete", w, q)
		}
		wantA, _ := tr.AverageBetween(w[0], w[1])
		gotA, _, err := tr.AverageBetweenTolerant(w[0], w[1], 1.5)
		if err != nil {
			t.Fatal(err)
		}
		if gotA != wantA {
			t.Errorf("window %v: tolerant average %v != fast-path %v", w, gotA, wantA)
		}
	}
	// maxGap <= 0 disables gap detection entirely.
	got, q, err := tr.EnergyBetweenTolerant(0, 100, 0)
	want, _ := tr.EnergyBetween(0, 100)
	if err != nil || got != want || q.Completeness != 1 {
		t.Errorf("maxGap=0: got %v (q %+v, err %v), want %v", got, q, err, want)
	}
}

func TestTolerantSkipsGaps(t *testing.T) {
	tr := dropRange(t, gapRampTrace(t, 100, 100, 0), 30, 40) // gap (29, 41)
	e, q, err := tr.EnergyBetweenTolerant(0, 100, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	if q.Gaps != 1 {
		t.Fatalf("gaps = %d, want 1", q.Gaps)
	}
	if math.Abs(q.LongestGap-12) > 1e-9 {
		t.Errorf("longest gap = %v, want 12", q.LongestGap)
	}
	if math.Abs(q.Completeness-0.88) > 1e-9 {
		t.Errorf("completeness = %v, want 0.88", q.Completeness)
	}
	// Constant 100 W over 88 covered seconds.
	if math.Abs(float64(e)-8800) > 1e-6 {
		t.Errorf("energy = %v, want 8800", e)
	}
	avg, _, err := tr.AverageBetweenTolerant(0, 100, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(avg)-100) > 1e-9 {
		t.Errorf("average = %v, want 100", avg)
	}
}

func TestTolerantGapClippedToWindow(t *testing.T) {
	tr := dropRange(t, gapRampTrace(t, 100, 50, 0), 30, 40)
	// Window [35, 60] starts inside the gap: only (41, 60] is covered.
	e, q, err := tr.EnergyBetweenTolerant(35, 60, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	covered := 60.0 - 41.0
	if math.Abs(q.Completeness-covered/25) > 1e-9 {
		t.Errorf("completeness = %v, want %v", q.Completeness, covered/25)
	}
	if math.Abs(float64(e)-50*covered) > 1e-6 {
		t.Errorf("energy = %v, want %v", e, 50*covered)
	}
}

func TestTolerantWindowEntirelyInGap(t *testing.T) {
	tr := dropRange(t, gapRampTrace(t, 100, 50, 0), 30, 40)
	if _, q, err := tr.EnergyBetweenTolerant(30, 40, 1.5); err != ErrNoData {
		t.Errorf("err = %v (q %+v), want ErrNoData", err, q)
	}
	if _, _, err := tr.AverageBetweenTolerant(30, 40, 1.5); err != ErrNoData {
		t.Errorf("average err = %v, want ErrNoData", err)
	}
}

func TestTolerantValidation(t *testing.T) {
	tr := gapRampTrace(t, 10, 100, 0)
	if _, _, err := tr.EnergyBetweenTolerant(-5, 3, 1.5); err == nil {
		t.Error("window before trace accepted")
	}
	short, _ := NewTrace([]Sample{{Time: 0, Power: 1}})
	if _, _, err := short.EnergyBetweenTolerant(0, 0, 1); err != ErrShortTrace {
		t.Errorf("short trace err = %v", err)
	}
	// Reversed windows normalize like EnergyBetween.
	a, qa, err := tr.EnergyBetweenTolerant(8, 2, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	b, _, _ := tr.EnergyBetweenTolerant(2, 8, 1.5)
	if a != b || qa.Completeness != 1 {
		t.Errorf("reversed window: %v vs %v", a, b)
	}
}

func TestSanitize(t *testing.T) {
	clean := gapRampTrace(t, 10, 100, 1)
	got, dropped, err := clean.Sanitize()
	if err != nil || dropped != 0 {
		t.Fatalf("clean sanitize: dropped %d err %v", dropped, err)
	}
	if got != clean {
		t.Error("clean trace was copied; want identical pointer")
	}

	dirty := []Sample{
		{Time: 0, Power: 100},
		{Time: 1, Power: Watts(math.NaN())},
		{Time: 2, Power: 110},
		{Time: 3, Power: Watts(math.Inf(1))},
		{Time: 4, Power: 120},
	}
	tr, err := NewTrace(dirty)
	if err != nil {
		t.Fatal(err)
	}
	st, dropped, err := tr.Sanitize()
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 2 || st.Len() != 3 {
		t.Errorf("dropped %d, len %d; want 2, 3", dropped, st.Len())
	}
	for _, s := range st.Samples() {
		if !isFinite(float64(s.Power)) {
			t.Errorf("non-finite sample survived: %+v", s)
		}
	}

	// All-NaN trace cannot be sanitized.
	bad, _ := NewTrace([]Sample{
		{Time: 0, Power: Watts(math.NaN())},
		{Time: 1, Power: Watts(math.NaN())},
		{Time: 2, Power: 5},
	})
	if _, _, err := bad.Sanitize(); err != ErrShortTrace {
		t.Errorf("unsalvageable trace err = %v, want ErrShortTrace", err)
	}
}
