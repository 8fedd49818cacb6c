package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("streams diverged at step %d: %d != %d", i, av, bv)
		}
	}
}

func TestDistinctSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 1 and 2 produced %d identical outputs in 100 draws", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Split()
	c2 := parent.Split()
	if c1.Uint64() == c2.Uint64() {
		t.Fatal("sibling splits produced the same first output")
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 100000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
	}
}

func TestFloat64Moments(t *testing.T) {
	r := New(11)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.Float64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean-0.5) > 0.005 {
		t.Errorf("uniform mean = %v, want ~0.5", mean)
	}
	if math.Abs(variance-1.0/12) > 0.005 {
		t.Errorf("uniform variance = %v, want ~%v", variance, 1.0/12)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(5)
	for n := 1; n <= 17; n++ {
		for i := 0; i < 1000; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnUniform(t *testing.T) {
	r := New(9)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	expected := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-expected) > 5*math.Sqrt(expected) {
			t.Errorf("bucket %d count %d too far from expected %v", i, c, expected)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(13)
	const n = 200000
	var sum, sumSq, sumCube float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
		sumCube += v * v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	skew := sumCube / n
	if math.Abs(mean) > 0.01 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
	if math.Abs(skew) > 0.05 {
		t.Errorf("normal third moment = %v, want ~0", skew)
	}
}

func TestNormalScaling(t *testing.T) {
	r := New(17)
	const n = 100000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Normal(100, 5)
	}
	if mean := sum / n; math.Abs(mean-100) > 0.1 {
		t.Errorf("Normal(100,5) mean = %v", mean)
	}
}

func TestNormalNegativeSigmaPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Normal with negative sigma did not panic")
		}
	}()
	New(1).Normal(0, -1)
}

func TestExpFloat64Mean(t *testing.T) {
	r := New(19)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		v := r.ExpFloat64()
		if v < 0 {
			t.Fatalf("exponential variate negative: %v", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-1) > 0.02 {
		t.Errorf("exponential mean = %v, want ~1", mean)
	}
}

func TestSampleWithoutReplacementProperties(t *testing.T) {
	r := New(31)
	check := func(n, k int) {
		s := r.SampleWithoutReplacement(n, k)
		if len(s) != k {
			t.Fatalf("SampleWithoutReplacement(%d,%d) returned %d items", n, k, len(s))
		}
		seen := make(map[int]bool, k)
		for _, v := range s {
			if v < 0 || v >= n {
				t.Fatalf("sample value %d out of [0,%d)", v, n)
			}
			if seen[v] {
				t.Fatalf("duplicate value %d in sample of size %d from %d", v, k, n)
			}
			seen[v] = true
		}
	}
	// Both the rejection path (k*8 < n) and the shuffle path.
	check(1000, 5)
	check(1000, 500)
	check(10, 10)
	check(10, 0)
	check(0, 0)
}

func TestSampleWithoutReplacementPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("oversized sample did not panic")
		}
	}()
	New(1).SampleWithoutReplacement(3, 4)
}

func TestSampleWithoutReplacementUniform(t *testing.T) {
	// Each element should be included with probability k/n.
	r := New(37)
	const n, k, draws = 20, 5, 40000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		for _, v := range r.SampleWithoutReplacement(n, k) {
			counts[v]++
		}
	}
	expected := float64(draws) * k / n
	for i, c := range counts {
		if math.Abs(float64(c)-expected) > 6*math.Sqrt(expected) {
			t.Errorf("element %d included %d times, want ~%v", i, c, expected)
		}
	}
}

func TestBernoulliEdges(t *testing.T) {
	r := New(41)
	for i := 0; i < 100; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
	}
}

func TestBernoulliRate(t *testing.T) {
	r := New(43)
	const p, draws = 0.3, 100000
	hits := 0
	for i := 0; i < draws; i++ {
		if r.Bernoulli(p) {
			hits++
		}
	}
	rate := float64(hits) / draws
	if math.Abs(rate-p) > 0.01 {
		t.Errorf("Bernoulli(%v) hit rate %v", p, rate)
	}
}

// Property: Uint64n(n) < n for every n > 0.
func TestQuickUint64nInRange(t *testing.T) {
	r := New(53)
	f := func(n uint64) bool {
		if n == 0 {
			return true
		}
		return r.Uint64n(n) < n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: the same seed always reproduces the same 10-element prefix.
func TestQuickSeedReproducibility(t *testing.T) {
	f := func(seed uint64) bool {
		a, b := New(seed), New(seed)
		for i := 0; i < 10; i++ {
			if a.Uint64() != b.Uint64() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink = r.Uint64()
	}
	_ = sink
}

func BenchmarkNormFloat64(b *testing.B) {
	r := New(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink = r.NormFloat64()
	}
	_ = sink
}

func BenchmarkSampleWithoutReplacement(b *testing.B) {
	r := New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.SampleWithoutReplacement(10000, 100)
	}
}
