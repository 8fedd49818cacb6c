package power

import (
	"math"
	"sort"
	"testing"

	"nodevar/internal/rng"
)

// energyBetweenNaive is the original O(window) trapezoid scan. It is the
// reference implementation the prefix-sum index is validated against.
func (t *Trace) energyBetweenNaive(a, b float64) (Joules, error) {
	if len(t.samples) < 2 {
		return 0, ErrShortTrace
	}
	if a > b {
		a, b = b, a
	}
	if err := t.checkSpan(a, b); err != nil {
		return 0, err
	}
	if a == b {
		return 0, nil
	}
	var total float64
	prevT, prevP := a, float64(t.At(a))
	i := sort.Search(len(t.samples), func(i int) bool { return t.samples[i].Time > a })
	for ; i < len(t.samples) && t.samples[i].Time < b; i++ {
		s := t.samples[i]
		total += (float64(s.Power) + prevP) / 2 * (s.Time - prevT)
		prevT, prevP = s.Time, float64(s.Power)
	}
	total += (float64(t.At(b)) + prevP) / 2 * (b - prevT)
	return Joules(total), nil
}

// randomTrace builds a trace with irregular timestamps and power values in
// a realistic range.
func randomTrace(r *rng.Rand, n int) *Trace {
	samples := make([]Sample, n)
	t := 0.0
	for i := range samples {
		t += 0.1 + 9.9*r.Float64()
		samples[i] = Sample{Time: t, Power: Watts(50 + 1950*r.Float64())}
	}
	tr, err := NewTrace(samples)
	if err != nil {
		panic(err)
	}
	return tr
}

// TestEnergyIndexMatchesNaive is the property test backing the prefix-sum
// index: on random traces and random windows, the indexed EnergyBetween
// must match the naive trapezoid scan to within 1e-9 relative error.
func TestEnergyIndexMatchesNaive(t *testing.T) {
	r := rng.New(42)
	for trial := 0; trial < 50; trial++ {
		tr := randomTrace(r, 2+r.Intn(3000))
		start, end := tr.Start(), tr.End()
		span := end - start
		for q := 0; q < 40; q++ {
			a := start + r.Float64()*span
			b := start + r.Float64()*span
			want, err := tr.energyBetweenNaive(a, b)
			if err != nil {
				t.Fatal(err)
			}
			got, err := tr.EnergyBetween(a, b)
			if err != nil {
				t.Fatal(err)
			}
			diff := math.Abs(float64(got - want))
			if scale := math.Abs(float64(want)); scale > 0 && diff/scale > 1e-9 {
				t.Fatalf("trial %d query %d: window [%v, %v]: indexed %v vs naive %v (rel err %v)",
					trial, q, a, b, got, want, diff/scale)
			}
		}
		// Window endpoints exactly on sample timestamps.
		s := tr.Samples()
		i := r.Intn(len(s))
		j := r.Intn(len(s))
		want, err := tr.energyBetweenNaive(s[i].Time, s[j].Time)
		if err != nil {
			t.Fatal(err)
		}
		got, err := tr.EnergyBetween(s[i].Time, s[j].Time)
		if err != nil {
			t.Fatal(err)
		}
		if diff := math.Abs(float64(got - want)); diff > 1e-9*(1+math.Abs(float64(want))) {
			t.Fatalf("trial %d: sample-aligned window [%v, %v]: indexed %v vs naive %v",
				trial, s[i].Time, s[j].Time, got, want)
		}
	}
}

// TestEnergyIndexFullSpanBitIdentical pins down a stronger guarantee used
// by the determinism story: full-span energy through the index performs
// the exact same left-to-right trapezoid summation as the naive scan, so
// Energy()/Average() results are bit-identical to the pre-index code.
func TestEnergyIndexFullSpanBitIdentical(t *testing.T) {
	r := rng.New(7)
	for trial := 0; trial < 20; trial++ {
		tr := randomTrace(r, 2+r.Intn(500))
		want, err := tr.energyBetweenNaive(tr.Start(), tr.End())
		if err != nil {
			t.Fatal(err)
		}
		got, err := tr.Energy()
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("trial %d: full-span energy %v != naive %v", trial, got, want)
		}
	}
}

// TestAppendInvalidatesIndex verifies that a windowed query after Append
// sees the new samples.
func TestCursorMatchesAt(t *testing.T) {
	r := rng.New(77)
	for trial := 0; trial < 20; trial++ {
		tr := randomTrace(r, 2+int(r.Uint64n(500)))
		cur := tr.Cursor()
		// Non-decreasing queries across the whole span, including repeats
		// and out-of-span clamps.
		x := tr.Start() - 0.5
		for x < tr.End()+0.5 {
			if got, want := cur.At(x), tr.At(x); got != want {
				t.Fatalf("trial %d: Cursor.At(%v) = %v, At = %v", trial, x, got, want)
			}
			if r.Float64() < 0.2 { // repeat the same time occasionally
				if got, want := cur.At(x), tr.At(x); got != want {
					t.Fatalf("trial %d: repeated Cursor.At(%v) = %v, At = %v", trial, x, got, want)
				}
			}
			x += r.Float64() * tr.Duration() / 50
		}
	}
}

func TestAppendInvalidatesIndex(t *testing.T) {
	tr, err := NewTrace([]Sample{{0, 100}, {10, 100}})
	if err != nil {
		t.Fatal(err)
	}
	e1, err := tr.Energy()
	if err != nil {
		t.Fatal(err)
	}
	if float64(e1) != 1000 {
		t.Fatalf("energy before append = %v", e1)
	}
	if err := tr.Append(Sample{20, 100}); err != nil {
		t.Fatal(err)
	}
	e2, err := tr.Energy()
	if err != nil {
		t.Fatal(err)
	}
	if float64(e2) != 2000 {
		t.Fatalf("energy after append = %v, want 2000", e2)
	}
}

// TestEnergyIndexConcurrentReaders exercises the lazy build from many
// goroutines at once; run with -race to check the atomic publication.
func TestEnergyIndexConcurrentReaders(t *testing.T) {
	tr := randomTrace(rng.New(3), 4096)
	want, err := tr.energyBetweenNaive(tr.Start(), tr.End())
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 16)
	for g := 0; g < 16; g++ {
		go func() {
			got, err := tr.Energy()
			if err == nil && got != want {
				err = errInconsistentEnergy
			}
			done <- err
		}()
	}
	for g := 0; g < 16; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

var errInconsistentEnergy = errTest("concurrent readers saw different energies")

type errTest string

func (e errTest) Error() string { return string(e) }
