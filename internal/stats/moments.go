package stats

import "math"

// StreamMoments tracks first and second moments of a data stream on an
// ExactSum carrier, so — unlike the classic Welford Accumulator — any
// partition of a stream into StreamMoments, merged in any order and any
// tree shape, yields bit-identical N, Mean and Variance to the single
// sequential pass. That makes it the moment carrier wherever
// accumulators are built independently and combined later: the fleet
// rolling-window buckets and sharded ingestion.
//
// Mean and Variance each perform a fixed, deterministic number of
// float64 roundings on exactly-rendered sums, so their accuracy is
// within a few ulps of the true value for well-conditioned data (the
// paper's power measurements have CV ≈ 0.02, far from the cancellation
// regime) and their bits never depend on merge topology.
//
// The zero value is an empty accumulator ready for use. Methods are not
// safe for concurrent use.
type StreamMoments struct {
	n       int64
	sum     ExactSum // Σx, exact
	squares ExactSum // Σx², exact
}

// Add incorporates one observation. It panics if x is NaN or ±Inf: the
// moments of a stream containing non-finite values are undefined, and
// callers on fault-tolerant paths filter before accumulating.
func (m *StreamMoments) Add(x float64) {
	m.sum.Add(x)
	m.squares.AddSquare(x)
	m.n++
}

// Merge combines another accumulator into this one, exactly: the result
// represents the union multiset of both streams. o is unmodified.
func (m *StreamMoments) Merge(o *StreamMoments) {
	m.sum.Merge(&o.sum)
	m.squares.Merge(&o.squares)
	m.n += o.n
}

// N returns the number of observations seen.
func (m *StreamMoments) N() int { return int(m.n) }

// Mean returns the stream mean. It panics if no data has been added.
func (m *StreamMoments) Mean() float64 {
	if m.n == 0 {
		panic(ErrEmpty)
	}
	return m.sum.Value() / float64(m.n)
}

// Variance returns the unbiased sample variance (divisor n-1), computed
// as (Σx² − n·μ²)/(n−1) from the exact sums and clamped at 0 so rounding
// can never produce a negative variance. It panics if fewer than two
// observations have been added.
func (m *StreamMoments) Variance() float64 {
	if m.n < 2 {
		panic("stats: StreamMoments.Variance needs at least 2 observations")
	}
	mean := m.Mean()
	v := (m.squares.Value() - float64(m.n)*mean*mean) / float64(m.n-1)
	if v < 0 {
		v = 0
	}
	return v
}

// StdDev returns the sample standard deviation (divisor n-1).
func (m *StreamMoments) StdDev() float64 { return math.Sqrt(m.Variance()) }
