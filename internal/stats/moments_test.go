package stats

import (
	"math"
	"testing"

	"nodevar/internal/rng"
)

// TestStreamMomentsMergeOrderSplitInvariant is the merge-invariance
// property test: for ANY partition of a sample stream — including
// non-contiguous ones — into per-part accumulators built sequentially,
// merged in ANY order and tree shape, every rendered moment is
// bit-identical to the single sequential pass. This is the guarantee the
// fleet window buckets and any future sharded ingestion lean on.
func TestStreamMomentsMergeOrderSplitInvariant(t *testing.T) {
	for seed := uint64(1); seed <= 24; seed++ {
		r := rng.New(seed)
		n := 2 + r.Intn(400)
		xs := mixedValues(r, n)

		var seq StreamMoments
		for _, x := range xs {
			seq.Add(x)
		}

		// Random (possibly empty-part, non-contiguous) partition.
		parts := make([]*StreamMoments, 1+r.Intn(12))
		for i := range parts {
			parts[i] = &StreamMoments{}
		}
		for _, x := range xs {
			parts[r.Intn(len(parts))].Add(x)
		}

		// Merge in random order with a random tree shape: repeatedly pick
		// two surviving accumulators and fold one into the other.
		for len(parts) > 1 {
			i := r.Intn(len(parts))
			j := r.Intn(len(parts) - 1)
			if j >= i {
				j++
			}
			parts[i].Merge(parts[j])
			parts[j] = parts[len(parts)-1]
			parts = parts[:len(parts)-1]
		}
		got := parts[0]

		if got.N() != seq.N() {
			t.Fatalf("seed %d: merged N=%d, sequential N=%d", seed, got.N(), seq.N())
		}
		assertSameBits := func(name string, a, b float64) {
			t.Helper()
			if math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("seed %d: merged %s=%g (%016x) differs from sequential %g (%016x)",
					seed, name, a, math.Float64bits(a), b, math.Float64bits(b))
			}
		}
		assertSameBits("Mean", got.Mean(), seq.Mean())
		assertSameBits("Variance", got.Variance(), seq.Variance())
		assertSameBits("StdDev", got.StdDev(), seq.StdDev())
	}
}

// twoPassVariance is the reference sample variance: the mean first,
// then the sum of squared deviations from it.
func twoPassVariance(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	mean := sum / float64(len(xs))
	var ss float64
	for _, x := range xs {
		ss += (x - mean) * (x - mean)
	}
	return ss / float64(len(xs)-1)
}

// TestStreamMomentsMatchesBatch pins StreamMoments to the batch
// references on well-conditioned (power-like) data: the exact-sum mean
// agrees with the Welford stats.Mean, and variance with a two-pass
// reference, to a few ulps.
func TestStreamMomentsMatchesBatch(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		r := rng.New(seed)
		xs := make([]float64, 2+r.Intn(3000))
		for i := range xs {
			xs[i] = r.Normal(420, 9)
		}
		var m StreamMoments
		for _, x := range xs {
			m.Add(x)
		}
		if got, want := m.Mean(), Mean(xs); math.Abs(got-want) > 1e-12*want {
			t.Fatalf("seed %d: stream mean %g, batch mean %g", seed, got, want)
		}
		if got, want := m.Variance(), twoPassVariance(xs); math.Abs(got-want) > 1e-9*want {
			t.Fatalf("seed %d: stream variance %g, batch variance %g", seed, got, want)
		}
	}
}

func TestStreamMomentsEmptyPanics(t *testing.T) {
	cases := map[string]func(*StreamMoments){
		"Mean":     func(m *StreamMoments) { m.Mean() },
		"Variance": func(m *StreamMoments) { m.Variance() },
	}
	for name, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on empty StreamMoments did not panic", name)
				}
			}()
			var m StreamMoments
			f(&m)
		}()
	}
	// Merging empties in any combination stays empty and harmless.
	var a, b StreamMoments
	a.Merge(&b)
	if a.N() != 0 {
		t.Fatalf("merged empties N=%d, want 0", a.N())
	}
	b.Add(3)
	a.Merge(&b)
	if a.N() != 1 || a.Mean() != 3 {
		t.Fatalf("empty.Merge(singleton) = N%d mean %g, want 1, 3", a.N(), a.Mean())
	}
}

func TestStreamMomentsZeroVariance(t *testing.T) {
	var m StreamMoments
	for i := 0; i < 50; i++ {
		m.Add(123.456)
	}
	if v := m.Variance(); v != 0 {
		t.Fatalf("constant stream variance %g, want exactly 0", v)
	}
}

// TestStreamMomentsVarianceLargeMean: a mean 1e8 times the spread is
// where Σx² − n·μ² loses every digit. Shifting by the first value is
// exact at this scale, so the two-pass variance of the shifted data is
// a reference good to ~1e-15.
func TestStreamMomentsVarianceLargeMean(t *testing.T) {
	for _, mu := range []float64{400, 1e6, 1e8} {
		r := rng.New(7)
		xs := make([]float64, 10000)
		shifted := make([]float64, len(xs))
		var m StreamMoments
		for i := range xs {
			xs[i] = r.Normal(mu, 1)
			shifted[i] = xs[i] - xs[0]
			m.Add(xs[i])
		}
		want := twoPassVariance(shifted)
		if got := m.Variance(); math.Abs(got-want) > 1e-12*want {
			t.Errorf("mu=%g: variance %.17g, two-pass reference %.17g (rel err %.2g)",
				mu, got, want, math.Abs(got-want)/want)
		}
	}
}
