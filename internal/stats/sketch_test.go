package stats

import (
	"encoding/binary"
	"math"
	"sort"
	"testing"

	"nodevar/internal/rng"
)

// sketchProbes are the quantiles the fleet endpoints serve; tests assert
// the α bound at each.
var sketchProbes = []float64{0.01, 0.05, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99}

// Count returns the number of observations absorbed.
func (s *QuantileSketch) Count() uint64 { return s.count }

// RelativeAccuracy returns the sketch's α.
func (s *QuantileSketch) RelativeAccuracy() float64 { return s.alpha }

// Bins returns the number of live buckets.
func (s *QuantileSketch) Bins() int { return len(s.bins) }

// Collapsed reports whether any bucket collapse has occurred; once true,
// low-tail quantiles may exceed the α error bound.
func (s *QuantileSketch) Collapsed() bool { return s.collapsed }

// Min returns the smallest observation seen. It panics if the sketch is
// empty.
func (s *QuantileSketch) Min() float64 {
	if s.count == 0 {
		panic(ErrEmpty)
	}
	return s.minSeen
}

// Max returns the largest observation seen. It panics if the sketch is
// empty.
func (s *QuantileSketch) Max() float64 {
	if s.count == 0 {
		panic(ErrEmpty)
	}
	return s.maxSeen
}

// assertSketchBound checks the documented guarantee: the estimate is
// within relative α of the nearest-rank order statistic, plus one ulp —
// for deeply subnormal values float64 spacing itself exceeds α, so no
// representable estimate can do better than the adjacent float.
func assertSketchBound(t *testing.T, s *QuantileSketch, sorted []float64, q float64) {
	t.Helper()
	rank := int(q*float64(len(sorted)-1) + 0.5)
	want := sorted[rank]
	got := s.Quantile(q)
	if want == 0 {
		if got != 0 {
			t.Fatalf("q=%g: estimate %g for a zero order statistic", q, got)
		}
		return
	}
	ulp := math.Nextafter(want, math.Inf(1)) - want
	if diff := math.Abs(got - want); diff > want*(s.RelativeAccuracy()+1e-12)+ulp {
		t.Fatalf("q=%g: estimate %g vs order statistic %g, relative error %g > α=%g",
			q, got, want, diff/want, s.RelativeAccuracy())
	}
}

func TestQuantileSketchBound(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		r := rng.New(seed)
		n := 50 + r.Intn(5000)
		xs := make([]float64, n)
		for i := range xs {
			switch r.Intn(3) {
			case 0:
				xs[i] = r.Normal(400, 8)
			case 1:
				xs[i] = r.ExpFloat64() * 1000
			default:
				xs[i] = math.Abs(r.Normal(0, 1)) * math.Ldexp(1, r.Intn(40)-20)
			}
			if xs[i] < 0 {
				xs[i] = 0
			}
		}
		s := NewQuantileSketch(0.005, 0)
		for _, x := range xs {
			s.Add(x)
		}
		if s.Collapsed() {
			t.Fatalf("seed %d: sketch collapsed on %d benign values", seed, n)
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		if s.Quantile(0) != sorted[0] || s.Quantile(1) != sorted[n-1] {
			t.Fatalf("seed %d: extremes (%g, %g) want (%g, %g)",
				seed, s.Quantile(0), s.Quantile(1), sorted[0], sorted[n-1])
		}
		for _, q := range sketchProbes {
			assertSketchBound(t, s, sorted, q)
		}
	}
}

// TestQuantileSketchSplitInvariant: bucket counts are a pure function of
// the input multiset, so any batching/ordering of the same values yields
// bit-identical quantiles.
func TestQuantileSketchSplitInvariant(t *testing.T) {
	r := rng.New(7)
	xs := make([]float64, 4000)
	for i := range xs {
		xs[i] = 350 + 100*r.Float64()
	}
	whole := NewQuantileSketch(0.005, 0)
	for _, x := range xs {
		whole.Add(x)
	}

	// Shuffled insertion order, and a three-way merge of shuffled shards.
	perm := make([]int, len(xs))
	for i := range perm {
		perm[i] = i
	}
	for i := len(perm) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	shards := []*QuantileSketch{
		NewQuantileSketch(0.005, 0),
		NewQuantileSketch(0.005, 0),
		NewQuantileSketch(0.005, 0),
	}
	for i, p := range perm {
		shards[i%3].Add(xs[p])
	}
	merged := NewQuantileSketch(0.005, 0)
	merged.Merge(shards[2])
	merged.Merge(shards[0])
	merged.Merge(shards[1])

	for _, q := range sketchProbes {
		a, b := whole.Quantile(q), merged.Quantile(q)
		if math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("q=%g: sequential %g != shuffled-merged %g", q, a, b)
		}
	}
	if whole.Count() != merged.Count() || whole.Bins() != merged.Bins() {
		t.Fatalf("count/bins diverged: (%d,%d) vs (%d,%d)",
			whole.Count(), whole.Bins(), merged.Count(), merged.Bins())
	}
}

func TestQuantileSketchCollapseStaysBounded(t *testing.T) {
	s := NewQuantileSketch(0.01, 32)
	r := rng.New(3)
	for i := 0; i < 20000; i++ {
		// ~120 decades of dynamic range forces collapsing at 32 buckets.
		s.Add(math.Ldexp(1+r.Float64(), r.Intn(800)-400))
	}
	if s.Bins() > 32 {
		t.Fatalf("bins %d exceed cap 32", s.Bins())
	}
	if !s.Collapsed() {
		t.Fatal("collapse expected and not reported")
	}
	// Even collapsed, estimates stay inside the observed range.
	for _, q := range sketchProbes {
		v := s.Quantile(q)
		if v < s.Min() || v > s.Max() {
			t.Fatalf("q=%g estimate %g outside [%g, %g]", q, v, s.Min(), s.Max())
		}
	}
}

func TestQuantileSketchRejects(t *testing.T) {
	s := NewQuantileSketch(0.01, 0)
	for _, x := range []float64{-1, math.NaN(), math.Inf(1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Add(%v) did not panic", x)
				}
			}()
			s.Add(x)
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Quantile on empty sketch did not panic")
			}
		}()
		s.Quantile(0.5)
	}()
	s.Add(1)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Quantile(1.5) did not panic")
			}
		}()
		s.Quantile(1.5)
	}()
}

// FuzzQuantileSketch feeds arbitrary byte-derived positive floats through
// the sketch and asserts the documented error bound against the exact
// order statistics, plus count consistency under a random two-way
// split-and-merge. It must never panic on finite non-negative input.
func FuzzQuantileSketch(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	f.Add(make([]byte, 64))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xef, 0x7f}) // MaxFloat64
	f.Fuzz(func(t *testing.T, data []byte) {
		var xs []float64
		for i := 0; i+8 <= len(data) && len(xs) < 4096; i += 8 {
			x := math.Float64frombits(binary.LittleEndian.Uint64(data[i : i+8]))
			if math.IsNaN(x) || math.IsInf(x, 0) {
				continue
			}
			xs = append(xs, math.Abs(x))
		}
		if len(xs) == 0 {
			return
		}
		s := NewQuantileSketch(0.01, 0)
		a := NewQuantileSketch(0.01, 0)
		b := NewQuantileSketch(0.01, 0)
		for i, x := range xs {
			s.Add(x)
			if i%2 == 0 {
				a.Add(x)
			} else {
				b.Add(x)
			}
		}
		a.Merge(b)
		if a.Count() != s.Count() {
			t.Fatalf("split-merge count %d != sequential %d", a.Count(), s.Count())
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		if s.Collapsed() {
			return // bound holds only absent collapse
		}
		for _, q := range []float64{0, 0.25, 0.5, 0.75, 1} {
			got := s.Quantile(q)
			rank := int(q * float64(len(sorted)-1))
			if q > 0 {
				rank = int(q*float64(len(sorted)-1) + 0.5)
			}
			want := sorted[rank]
			if want == 0 {
				continue
			}
			// One-ulp allowance: subnormal float spacing can exceed α.
			ulp := math.Nextafter(want, math.Inf(1)) - want
			if diff := math.Abs(got - want); diff > want*(s.RelativeAccuracy()+1e-9)+ulp {
				t.Fatalf("q=%g: estimate %g vs %g, relative error %g", q, got, want, diff/want)
			}
		}
	})
}
