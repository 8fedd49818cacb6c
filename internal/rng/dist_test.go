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
//
// The other shapes reach the two ways a segment finishes without
// splitting. k ∈ {2, 4, 8} is one bit-sliced leaf, at n on both sides of
// a 64-draw block edge and of popcountCutoff (at 2049 a BTRS split
// comes first; k = 2 then writes both cells in place). Fewer draws than cells is the sparse scatter: at
// the root, where a draw must equal the histogram of n Intn(k) calls on
// the same stream, and inside the tree at (516, 530), where 256-cell
// halves and the 4-cell part often get fewer draws than cells.
func TestMultinomialEqualMatchesDefinition(t *testing.T) {
	const trials, alpha = 3000, 0.001
	cases := []struct{ cells, n int }{
		{516, 9116}, {600, 9166}, {210, 190},
		{3, 20}, {5, 20}, {7, 20}, {3, 200}, {5, 200}, {7, 200},
		{516, 100}, {64, 10}, {516, 530},
	}
	for _, k := range []int{2, 4, 8} {
		for _, n := range []int{1, 63, 64, 65, 142, 2048, 2049} {
			cases = append(cases, struct{ cells, n int }{k, n})
		}
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
			if tc.n < tc.cells {
				a, b := rng.New(seed), rng.New(seed)
				a.MultinomialEqual(tc.n, counts)
				want := make([]int, tc.cells)
				for j := 0; j < tc.n; j++ {
					want[b.Intn(tc.cells)]++
				}
				for i := range want {
					if counts[i] != want[i] {
						t.Fatalf("sparse draw cell %d = %d, the same stream's Intn histogram has %d", i, counts[i], want[i])
					}
				}
				if a.Uint64() != b.Uint64() {
					t.Fatal("sparse draw consumed a different number of words than n Intn calls")
				}
			}
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

// TestMultinomialEqualLeafCovariance checks the joint law inside one
// bit-sliced leaf, which marginal tests cannot see: two cells of a
// Multinomial(n; 1/k, ...) draw have covariance −n/k². Cells 0 and 7 of
// an 8-cell leaf differ in every bit; cells 2 and 3 differ in the
// lowest only. The leaf is the whole draw at k = 8 and cells 0–7 of
// LRZ's 516. With the means known (n/k), the mean product of the
// deviations estimates the covariance without bias; it must lie within
// 4 standard errors of −n/k². At k = 8 that is about 20 standard errors
// from 0, the answer of cells drawn independently.
func TestMultinomialEqualLeafCovariance(t *testing.T) {
	const trials = 20000
	for _, tc := range []struct{ cells, n int }{{8, 142}, {8, 2048}, {516, 9196}} {
		r := rng.New(uint64(tc.cells)<<20 + uint64(tc.n))
		counts := make([]int, tc.cells)
		mean := float64(tc.n) / float64(tc.cells)
		want := -mean / float64(tc.cells)
		for _, pr := range [][2]int{{0, 7}, {2, 3}} {
			var sum, sumsq float64
			for i := 0; i < trials; i++ {
				r.MultinomialEqual(tc.n, counts)
				x := (float64(counts[pr[0]]) - mean) * (float64(counts[pr[1]]) - mean)
				sum += x
				sumsq += x * x
			}
			cov := sum / trials
			se := math.Sqrt((sumsq/trials - cov*cov) / trials)
			if math.Abs(cov-want) > 4*se {
				t.Errorf("k=%d n=%d: Cov(c%d, c%d) = %.3f ± %.3f, want %.3f", tc.cells, tc.n, pr[0], pr[1], cov, se, want)
			}
		}
	}
}

// TestMultinomialEqualSumsToN draws seeded random shapes, from one cell
// to past 2^16 and from no draws to past popcountCutoff per cell, so
// every way a segment finishes is reached many times: the counts must
// be non-negative and sum to n.
func TestMultinomialEqualSumsToN(t *testing.T) {
	r := rng.New(2026)
	for i := 0; i < 3000; i++ {
		k := 1 + r.Intn(1<<(1+r.Intn(17)))
		n := r.Intn(1 + k*(1<<r.Intn(13)))
		counts := make([]int, k)
		r.MultinomialEqual(n, counts)
		sum := 0
		for j, c := range counts {
			if c < 0 {
				t.Fatalf("k=%d n=%d: cell %d = %d", k, n, j, c)
			}
			sum += c
		}
		if sum != n {
			t.Fatalf("k=%d n=%d: counts sum to %d", k, n, sum)
		}
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

func TestDistSamplersAllocationFree(t *testing.T) {
	r := rng.New(9)
	counts := make([]int, 516)
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
// draw at the sizes the coverage studies draw: a replicate takes n_max
// pilot picks and one multinomial over the other N − n_max nodes. LRZ
// (516 cells, N 9216) at nodevard's sample sizes up to 20, the 600-cell
// robustness pilot at the ablation's sizes up to 50, and TU Dresden (210
// cells, N 210) at sizes up to 20, where draws are fewer than cells.
// The maxpilot cases are the most expensive draws /v1/coverage admits:
// a 65536-value pilot at population 65536 and at 1e9, both at sizes up
// to 20.
func BenchmarkMultinomialEqual(b *testing.B) {
	cases := []struct {
		name     string
		cells, n int
	}{
		{"lrz_516", 516, 9216 - 20},
		{"robust_600", 600, 9216 - 50},
		{"tudresden_210", 210, 210 - 20},
		{"maxpilot_65536", 65536, 65536 - 20},
		{"maxpilot_1e9", 65536, 1e9 - 20},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			r := rng.New(1)
			counts := make([]int, tc.cells)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.MultinomialEqual(tc.n, counts)
			}
		})
	}
}

// BenchmarkCountedReplicate is the RNG work of one coverage replicate
// in coverageVariants on nodevard's default shapes (sample sizes up to
// 20): n_max Intn pilot picks, then one multinomial over the other
// N − n_max nodes.
func BenchmarkCountedReplicate(b *testing.B) {
	cases := []struct {
		name                    string
		pilot, population, nmax int
	}{
		{"lrz", 516, 9216, 20},
		{"tudresden", 210, 210, 20},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			r := rng.New(1)
			counts := make([]int, tc.pilot)
			picks := make([]int, tc.nmax)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range picks {
					picks[j] = r.Intn(tc.pilot)
				}
				r.MultinomialEqual(tc.population-tc.nmax, counts)
			}
		})
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
