package rng

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"testing"
)

// The digests below pin the exact variate streams of the count-based
// bootstrap kernels. Every coverage study, golden table and checkpoint
// in the repository is a function of these streams, so a kernel change
// (a faster log-factorial, a different rejection constant) must leave
// them bit-identical; a digest mismatch means the change altered some
// draw, not just its cost.

func digestInts(h hash.Hash64, xs ...int) {
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], uint64(x))
		h.Write(b[:])
	}
}

// The shapes the repository draws: LRZ's 516-cell pilot over 9216 nodes,
// the 600-cell robustness pilot over the same population, and a small
// machine with more cells than draws.
func TestMultinomialEqualStreamDigest(t *testing.T) {
	cases := []struct {
		cells, n, draws int
		want            uint64
	}{
		{516, 9216, 2000, 0x095b6598cc255a2c},
		{600, 9216, 2000, 0xb7c18f87e7eb29bd},
		{210, 190, 5000, 0xd3624dfc0239ca65},
	}
	for _, tc := range cases {
		r := New(uint64(tc.cells)*31 + uint64(tc.n))
		h := fnv.New64a()
		counts := make([]int, tc.cells)
		for i := 0; i < tc.draws; i++ {
			r.MultinomialEqual(tc.n, counts)
			digestInts(h, counts...)
		}
		// The next raw output pins how many generator words the draws
		// consumed, not just what they produced.
		digestInts(h, int(r.Uint64()))
		if got := h.Sum64(); got != tc.want {
			t.Errorf("MultinomialEqual(%d cells, n=%d) stream digest = %#x, want %#x",
				tc.cells, tc.n, got, tc.want)
		}
	}
}

// TestBinomialStreamDigest covers every Binomial path — inversion,
// popcount, BTRS with and without the flip — over populations that run
// past logFactCap, where BTRS falls back to computing lgamma directly.
func TestBinomialStreamDigest(t *testing.T) {
	const want = 0x2e98b847539458cb
	ns := []int{7, 40, 190, 516, 600, 9216, 16383, 16384, 16385, 50000, 1 << 20}
	ps := []float64{0.001, 0.02, 0.1, 1.0 / 3, 0.25, 0.5, 5.0 / 11, 0.7, 0.97}
	r := New(424242)
	h := fnv.New64a()
	for _, n := range ns {
		for _, p := range ps {
			for i := 0; i < 64; i++ {
				digestInts(h, r.Binomial(n, p))
			}
		}
	}
	digestInts(h, int(r.Uint64()))
	if got := h.Sum64(); got != want {
		t.Errorf("Binomial stream digest = %#x, want %#x", got, uint64(want))
	}
}

// The digests only see a constant change that flips some accept/reject
// decision, and a last-bit change almost never does; the tabulated
// log-factorials are therefore checked bit for bit against the lgamma
// calls they replace.
func TestBTRSTablesExact(t *testing.T) {
	tab := logFactTable()
	if len(tab) != logFactCap {
		t.Fatalf("table has %d entries, want %d", len(tab), logFactCap)
	}
	for i, v := range tab {
		want, _ := math.Lgamma(float64(i) + 1)
		if math.Float64bits(v) != math.Float64bits(want) {
			t.Fatalf("logFactTable()[%d] = %v, want lgamma(%d) = %v", i, v, i+1, want)
		}
	}
}
