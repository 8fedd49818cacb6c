package power

import (
	"errors"
	"math"
	"testing"

	"nodevar/internal/rng"
)

// sameBits reports whether two averages are the same float64, bit for bit.
func sameBits(a, b Watts) bool {
	return math.Float64bits(float64(a)) == math.Float64bits(float64(b))
}

// sameErr reports whether two errors are both nil or carry one message.
func sameErr(a, b error) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.Error() == b.Error()
}

// TestIntegratorMatchesTraceAverage feeds random sample streams through an
// Integrator and checks that it reports exactly what NewTrace(samples)
// followed by Average reports: the same bits, or the same error.
func TestIntegratorMatchesTraceAverage(t *testing.T) {
	r := rng.New(20)
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Intn(400)
		samples := make([]Sample, n)
		x := -50 + 100*r.Float64()
		for i := range samples {
			x += 1e-3 + 5*r.Float64()
			samples[i] = Sample{Time: x, Power: Watts(-10 + 2000*r.Float64())}
		}
		if trial%4 == 3 && n > 2 {
			// Break strict increase somewhere: a repeat or a step back.
			k := 1 + r.Intn(n-1)
			samples[k].Time = samples[k-1].Time - float64(r.Intn(2))*r.Float64()
		}
		var g Integrator
		for _, s := range samples {
			g.Add(s)
		}
		got, gotErr := g.Average()
		var want Watts
		tr, wantErr := NewTrace(samples)
		if wantErr == nil {
			want, wantErr = tr.Average()
		}
		if !sameErr(gotErr, wantErr) {
			t.Fatalf("trial %d: error %v, want %v", trial, gotErr, wantErr)
		}
		if !sameBits(got, want) {
			t.Fatalf("trial %d: streamed %v (%#x), trace %v (%#x)", trial,
				got, math.Float64bits(float64(got)), want, math.Float64bits(float64(want)))
		}
	}
	var empty Integrator
	if _, err := empty.Average(); !errors.Is(err, ErrShortTrace) {
		t.Fatalf("empty stream: %v, want ErrShortTrace", err)
	}
}

// TestWindowCursorMatchesAverageBetween checks every read of a
// WindowCursor against Trace.AverageBetween bit for bit, over sliding
// scans, random-order queries, empty and inverted windows and windows
// leaving the span.
func TestWindowCursorMatchesAverageBetween(t *testing.T) {
	r := rng.New(21)
	for trial := 0; trial < 40; trial++ {
		tr := randomTrace(r, 2+r.Intn(2000))
		start, span := tr.Start(), tr.Duration()
		s := tr.Samples()
		check := func(w *WindowCursor, a, b float64) {
			t.Helper()
			got, gotErr := w.AverageBetween(a, b)
			want, wantErr := tr.AverageBetween(a, b)
			if !sameErr(gotErr, wantErr) || !sameBits(got, want) {
				t.Fatalf("trial %d: [%v, %v]: cursor %v (%v), trace %v (%v)",
					trial, a, b, got, gotErr, want, wantErr)
			}
		}
		// A sliding scan, as BestWindow runs it.
		w := tr.WindowCursor()
		length := span * r.Float64()
		steps := 2 + r.Intn(600)
		stride := (span - length) / float64(steps-1)
		for i := 0; i < steps; i++ {
			lo := start + float64(i)*stride
			check(w, lo, lo+length)
		}
		// Random order, sample-aligned ends and degenerate windows.
		w = tr.WindowCursor()
		for q := 0; q < 200; q++ {
			a := start + (1.2*r.Float64()-0.1)*span
			b := start + (1.2*r.Float64()-0.1)*span
			switch q % 5 {
			case 1:
				a, b = s[r.Intn(len(s))].Time, s[r.Intn(len(s))].Time
			case 2:
				b = a
			}
			check(w, a, b)
		}
		check(w, math.NaN(), start+span/2)
	}
}
