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
// Mean and Variance are pure functions of the exact sums, so their bits
// never depend on merge topology.
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

// Variance returns the unbiased sample variance (divisor n-1),
// (n·Σx² − (Σx)²)/(n·(n−1)), clamped at 0. Both sums enter as ~106-bit
// double-doubles and the leading products carry their FMA rounding
// errors, so the difference keeps its digits even at CV = 1e-8, where
// the textbook Σx² − n·μ² in float64 is all rounding. It panics if fewer
// than two observations have been added.
func (m *StreamMoments) Variance() float64 {
	if m.n < 2 {
		panic("stats: StreamMoments.Variance needs at least 2 observations")
	}
	n := float64(m.n)
	s1, s1lo := m.sum.valueDD()
	s2, s2lo := m.squares.valueDD()
	p := n * s2  // n·Σx²
	q := s1 * s1 // (Σx)²
	d := (p - q) + ((math.FMA(n, s2, -p) - math.FMA(s1, s1, -q)) + (n*s2lo - (2*s1+s1lo)*s1lo))
	v := d / (n * (n - 1))
	if v < 0 {
		v = 0
	}
	return v
}

// StdDev returns the sample standard deviation (divisor n-1).
func (m *StreamMoments) StdDev() float64 { return math.Sqrt(m.Variance()) }
