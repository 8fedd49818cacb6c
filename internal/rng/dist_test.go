package rng_test

// Goodness-of-fit tests for the discrete-distribution kernels: every
// sampler is checked against its exact pmf with a chi-square test (the
// chi-square CDF comes from internal/stats, hence the external test
// package — stats imports rng). Seeds are fixed, so a pass is
// deterministic; the thresholds are loose enough (p > 0.001) that a
// correct sampler passes for almost every seed, while an off-by-one or
// wrong-branch sampler fails catastrophically.

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"nodevar/internal/rng"
	"nodevar/internal/stats"
)

func lg(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}

func lchoose(n, k int) float64 {
	return lg(float64(n)+1) - lg(float64(k)+1) - lg(float64(n-k)+1)
}

func binomPMF(n int, p float64, x int) float64 {
	if x < 0 || x > n {
		return 0
	}
	return math.Exp(lchoose(n, x) + float64(x)*math.Log(p) + float64(n-x)*math.Log1p(-p))
}

// chiSquareP tallies draws from sample over the support [lo, hi], merges
// adjacent cells until each expects at least 5 counts, and returns the
// chi-square goodness-of-fit p-value against pmf.
func chiSquareP(t *testing.T, sample func() int, pmf func(int) float64, lo, hi, draws int) float64 {
	t.Helper()
	obs := make([]float64, hi-lo+1)
	for i := 0; i < draws; i++ {
		x := sample()
		if x < lo || x > hi {
			t.Fatalf("draw %d outside support [%d, %d]", x, lo, hi)
		}
		obs[x-lo]++
	}
	exp := make([]float64, hi-lo+1)
	for x := lo; x <= hi; x++ {
		exp[x-lo] = pmf(x) * float64(draws)
	}
	// Greedy left-to-right merge so every bin expects >= 5.
	var binObs, binExp []float64
	var co, ce float64
	for i := range exp {
		co += obs[i]
		ce += exp[i]
		if ce >= 5 {
			binObs = append(binObs, co)
			binExp = append(binExp, ce)
			co, ce = 0, 0
		}
	}
	if len(binExp) == 0 {
		t.Fatal("support too thin for a chi-square test")
	}
	binObs[len(binObs)-1] += co
	binExp[len(binExp)-1] += ce
	if len(binExp) < 2 {
		t.Fatal("fewer than 2 bins after merging")
	}
	var stat float64
	for i := range binExp {
		d := binObs[i] - binExp[i]
		stat += d * d / binExp[i]
	}
	return 1 - stats.ChiSquared{K: float64(len(binExp) - 1)}.CDF(stat)
}

func TestBinomialGOF(t *testing.T) {
	cases := []struct {
		name string
		n    int
		p    float64
		seed uint64
	}{
		{"inversion_small", 25, 0.3, 101},       // BINV path (n·p = 7.5)
		{"inversion_flipped", 40, 0.9, 102},     // p > 1/2, n·q = 4 → flip + BINV
		{"btrs_moderate", 400, 0.25, 103},       // BTRS path (n·p = 100)
		{"btrs_flipped", 300, 0.8, 104},         // flip + BTRS (n·q = 60)
		{"btrs_near_cutoff", 50, 0.25, 105},     // BTRS just past the split (12.5)
		{"inversion_tiny_p", 5000, 0.0004, 106}, // huge n, n·p = 2
		{"popcount_half", 1000, 0.5, 107},       // p = 1/2 → popcount path
		{"btrs_half", 6000, 0.5, 108},           // p = 1/2 past popcountCutoff → BTRS
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := rng.New(tc.seed)
			p := chiSquareP(t,
				func() int { return r.Binomial(tc.n, tc.p) },
				func(x int) float64 { return binomPMF(tc.n, tc.p, x) },
				0, tc.n, 20000)
			if p < 0.001 {
				t.Errorf("Binomial(%d, %v) GOF p-value = %v", tc.n, tc.p, p)
			}
		})
	}
}

func TestBinomialEdgeCases(t *testing.T) {
	r := rng.New(1)
	if got := r.Binomial(0, 0.5); got != 0 {
		t.Errorf("Binomial(0, .5) = %d", got)
	}
	if got := r.Binomial(10, 0); got != 0 {
		t.Errorf("Binomial(10, 0) = %d", got)
	}
	if got := r.Binomial(10, 1); got != 10 {
		t.Errorf("Binomial(10, 1) = %d", got)
	}
	for i := 0; i < 1000; i++ {
		if k := r.Binomial(7, 0.37); k < 0 || k > 7 {
			t.Fatalf("Binomial(7, .37) = %d outside [0, 7]", k)
		}
	}
	for _, bad := range []float64{math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Binomial(5, %v) did not panic", bad)
				}
			}()
			r.Binomial(5, bad)
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Binomial(-1, .5) did not panic")
			}
		}()
		r.Binomial(-1, 0.5)
	}()
}

func TestMultinomialEqualMarginalsAndSum(t *testing.T) {
	r := rng.New(301)
	const n, k, trials = 1000, 6, 4000
	counts := make([]int, k)
	cell0 := make([]int, trials)
	for tr := 0; tr < trials; tr++ {
		r.MultinomialEqual(n, counts)
		sum := 0
		for _, c := range counts {
			if c < 0 {
				t.Fatalf("negative cell count %d", c)
			}
			sum += c
		}
		if sum != n {
			t.Fatalf("counts sum to %d, want %d", sum, n)
		}
		cell0[tr] = counts[0]
	}
	// Marginal of any cell is Binomial(n, 1/k).
	i := 0
	p := chiSquareP(t,
		func() int { x := cell0[i]; i++; return x },
		func(x int) float64 { return binomPMF(n, 1.0/k, x) },
		0, n, trials)
	if p < 0.001 {
		t.Errorf("MultinomialEqual cell marginal GOF p-value = %v", p)
	}
}

// TestMultinomialEqualMatchesDefinition checks the split tree against
// the definition it stands for, the histogram of n iid Intn(k) picks, on
// the three shapes the repository draws and on small odd k. A fixed
// count-weighted sum of the cells must pass a two-sample KS test against
// the same sum over the definition's histograms, and the first and last
// cells, which sit on opposite sides of the first biased split, must
// each fit Binomial(n, 1/k).
func TestMultinomialEqualMatchesDefinition(t *testing.T) {
	const trials, alpha = 3000, 0.001
	cases := []struct{ cells, n int }{
		{516, 9116}, {600, 9166}, {210, 190},
		{3, 20}, {5, 20}, {7, 20}, {3, 200}, {5, 200}, {7, 200},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("k%d_n%d", tc.cells, tc.n), func(t *testing.T) {
			seed := uint64(tc.cells)*100003 + uint64(tc.n)
			// Cell weights rise with the index, so draws moved across a
			// split shift the sum; the fractional parts keep distinct
			// histograms from tying.
			w := make([]float64, tc.cells)
			wr := rng.New(seed)
			for i := range w {
				w[i] = float64(i) + wr.Float64()
			}
			dot := func(c []int) float64 {
				s := 0.0
				for i, x := range c {
					s += float64(x) * w[i]
				}
				return s
			}
			r, def := rng.New(seed+1), rng.New(seed+2)
			counts := make([]int, tc.cells)
			got, ref := make([]float64, trials), make([]float64, trials)
			first, last := make([]int, trials), make([]int, trials)
			for i := range got {
				r.MultinomialEqual(tc.n, counts)
				got[i] = dot(counts)
				first[i], last[i] = counts[0], counts[tc.cells-1]
				for j := range counts {
					counts[j] = 0
				}
				for j := 0; j < tc.n; j++ {
					counts[def.Intn(tc.cells)]++
				}
				ref[i] = dot(counts)
			}
			// Asymptotic two-sample KS critical value c(α)·√(2/trials),
			// c(α) = √(−ln(α/2)/2); ties (small k) only make it
			// conservative.
			crit := math.Sqrt(-math.Log(alpha/2) / trials)
			if d := ksTwoSample(got, ref); d > crit {
				t.Errorf("weighted-sum KS D = %.4f against the definition, critical %.4f", d, crit)
			}
			for _, cell := range []struct {
				name string
				xs   []int
			}{{"first", first}, {"last", last}} {
				i := 0
				p := chiSquareP(t,
					func() int { x := cell.xs[i]; i++; return x },
					func(x int) float64 { return binomPMF(tc.n, 1/float64(tc.cells), x) },
					0, tc.n, trials)
				if p < alpha {
					t.Errorf("%s cell marginal GOF p-value = %v", cell.name, p)
				}
			}
		})
	}
}

// ksTwoSample returns the two-sample Kolmogorov-Smirnov statistic: the
// largest gap between the empirical CDFs of a and b. It sorts both.
func ksTwoSample(a, b []float64) float64 {
	sort.Float64s(a)
	sort.Float64s(b)
	na, nb := float64(len(a)), float64(len(b))
	d := 0.0
	for i, j := 0, 0; i < len(a) && j < len(b); {
		x := math.Min(a[i], b[j])
		for i < len(a) && a[i] == x {
			i++
		}
		for j < len(b) && b[j] == x {
			j++
		}
		d = math.Max(d, math.Abs(float64(i)/na-float64(j)/nb))
	}
	return d
}

func TestUint64BlockMatchesSequential(t *testing.T) {
	a, b := rng.New(77), rng.New(77)
	block := make([]uint64, 1000)
	a.Uint64Block(block[:601])
	a.Uint64Block(block[601:])
	for i, w := range block {
		if seq := b.Uint64(); w != seq {
			t.Fatalf("block output %d = %x, sequential = %x", i, w, seq)
		}
	}
	// The generators must be left in identical states.
	if a.Uint64() != b.Uint64() {
		t.Fatal("states diverged after block fill")
	}
}

func TestResampleFloat64s(t *testing.T) {
	r := rng.New(55)
	src := []float64{1.5, 2.5, 3.5, 4.5, 5.5}
	dst := make([]float64, 10000)
	r.ResampleFloat64s(dst, src)
	counts := map[float64]int{}
	for _, v := range dst {
		counts[v]++
	}
	if len(counts) != len(src) {
		t.Fatalf("resample produced %d distinct values, want %d", len(counts), len(src))
	}
	for v, c := range counts {
		if math.Abs(float64(c)-2000) > 6*math.Sqrt(2000) {
			t.Errorf("value %v drawn %d times, want ~2000", v, c)
		}
	}
	// Determinism across calls with the same seed.
	r2 := rng.New(55)
	dst2 := make([]float64, len(dst))
	r2.ResampleFloat64s(dst2, src)
	for i := range dst {
		if dst[i] != dst2[i] {
			t.Fatalf("resample not deterministic at %d", i)
		}
	}
}

func TestDistSamplersAllocationFree(t *testing.T) {
	r := rng.New(9)
	counts := make([]int, 516)
	src := make([]float64, 516)
	dst := make([]float64, 516)
	for i := range src {
		src[i] = float64(i)
	}
	if n := testing.AllocsPerRun(100, func() {
		r.MultinomialEqual(9216, counts)
	}); n != 0 {
		t.Errorf("multinomial draw allocates %v per run", n)
	}
	// BTRS range, below and above the log-factorial table cap; the
	// table is built on first use, before AllocsPerRun starts counting.
	if n := testing.AllocsPerRun(100, func() {
		for i := 0; i < 16; i++ {
			r.Binomial(9216, 0.3)
			r.Binomial(1<<20, 0.3)
		}
	}); n != 0 {
		t.Errorf("BTRS Binomial draw allocates %v per run", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		r.ResampleFloat64s(dst, src)
	}); n != 0 {
		t.Errorf("ResampleFloat64s allocates %v per run", n)
	}
	smp := make([]int, 100)
	if n := testing.AllocsPerRun(100, func() {
		r.SampleWithoutReplacementInto(10000, smp)
	}); n != 0 {
		t.Errorf("SampleWithoutReplacementInto (small-k path) allocates %v per run", n)
	}
	mid := make([]int, 500)
	r.SampleWithoutReplacementInto(100000, mid) // warm the bitset pool
	if n := testing.AllocsPerRun(100, func() {
		r.SampleWithoutReplacementInto(100000, mid)
	}); n != 0 {
		t.Errorf("SampleWithoutReplacementInto (bitset path) allocates %v per run", n)
	}
}

func BenchmarkBinomial(b *testing.B) {
	cases := []struct {
		name string
		n    int
		p    float64
	}{
		{"inv_np7", 25, 0.3},
		{"btrs_np100", 400, 0.25},
		{"btrs_np2304", 9216, 0.25},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			r := rng.New(1)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r.Binomial(tc.n, tc.p)
			}
		})
	}
}

// BenchmarkMultinomialEqual is the RNG cost of one count-based machine
// draw on the shapes the repository draws: LRZ (pilot 516, N 9216), the
// 600-cell robustness-study pilot over the same population, and
// coverage-miss's TU Dresden study (190 draws over 210 cells). A draw
// makes popcount(cells)−1 biased splits (1, 3 and 3 here), and every
// other split is a fair coin served by popcount, or by BTRS above
// popcountCutoff draws.
func BenchmarkMultinomialEqual(b *testing.B) {
	cases := []struct {
		name     string
		cells, n int
	}{
		{"lrz_516", 516, 9216},
		{"robust_600", 600, 9216},
		{"tudresden_210", 210, 190},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			r := rng.New(1)
			counts := make([]int, tc.cells)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r.MultinomialEqual(tc.n, counts)
			}
		})
	}
}

// BenchmarkCountedReplicate is the RNG cost of one count-based coverage
// replicate on the LRZ shape (pilot 516, N 9216, one subset of 10):
// the multinomial machine draw plus one sparse subset draw.
func BenchmarkCountedReplicate(b *testing.B) {
	r := rng.New(1)
	counts := make([]int, 516)
	idx := make([]int, 10)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.MultinomialEqual(9216, counts)
		r.SampleWithoutReplacementInto(9216, idx)
	}
}

func BenchmarkSampleWithoutReplacementInto(b *testing.B) {
	r := rng.New(1)
	dst := make([]int, 100)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.SampleWithoutReplacementInto(10000, dst)
	}
}
