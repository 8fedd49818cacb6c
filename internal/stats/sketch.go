package stats

import (
	"math"
	"sort"
)

// DefaultSketchBins is the default bucket cap of a QuantileSketch. With
// relative accuracy α = 0.005 it covers ~20 decades of dynamic range
// before any collapsing happens — per-node power data spans less than
// one decade, so collapse is a pathological-input safety valve, not a
// steady-state behavior.
const DefaultSketchBins = 2048

// QuantileSketch is a fixed-memory streaming quantile estimator for
// non-negative data in the DDSketch family: values land in geometric
// buckets (γ^(i-1), γ^i] with γ = (1+α)/(1−α), so every bucket midpoint
// is within relative error α of every value in its bucket.
//
// Guarantees:
//
//   - Quantile(q) returns an estimate within relative error α of the
//     nearest-rank order statistic at rank round(q·(n−1)), provided no
//     bucket collapse has occurred (Collapsed reports this), plus at
//     most one ulp — for deeply subnormal values the float64 grid itself
//     is coarser than α. Estimates are additionally clamped into
//     [Min, Max], and q = 0 / q = 1 return the exact extremes.
//   - Bucket assignment is a pure function of the value, so bucket
//     counts — and therefore quantile estimates — are bit-identical for
//     any ordering or batching of the same input multiset (again absent
//     collapse, which is order-sensitive by nature).
//   - Memory is bounded by maxBins buckets regardless of stream length;
//     past the cap the two lowest buckets merge, sacrificing accuracy in
//     the extreme low tail first.
//
// Merge combines sketches with the same α losslessly. The zero value is
// not usable; construct with NewQuantileSketch. Methods are not safe for
// concurrent use.
type QuantileSketch struct {
	alpha     float64
	gamma     float64
	invLogG   float64
	log2Gamma float64
	maxBins   int
	bins      map[int]uint64
	zeros     uint64 // exact count of x == 0, ordered below all positives
	count     uint64
	minSeen   float64
	maxSeen   float64
	collapsed bool
}

// NewQuantileSketch builds a sketch with relative accuracy alpha
// (0 < alpha < 1) and at most maxBins buckets (<= 0 selects
// DefaultSketchBins). It panics on an invalid alpha.
func NewQuantileSketch(alpha float64, maxBins int) *QuantileSketch {
	if !(alpha > 0 && alpha < 1) {
		panic("stats: sketch relative accuracy outside (0, 1)")
	}
	if maxBins <= 0 {
		maxBins = DefaultSketchBins
	}
	gamma := (1 + alpha) / (1 - alpha)
	return &QuantileSketch{
		alpha:     alpha,
		gamma:     gamma,
		invLogG:   1 / math.Log(gamma),
		log2Gamma: math.Log2(gamma),
		maxBins:   maxBins,
		bins:      make(map[int]uint64),
	}
}

// minNormalFloat is the smallest normal float64, 2^-1022. Below it,
// log/exp arithmetic on the value itself is unreliable (math.Log in
// particular can mishandle subnormal inputs), so bucket indexing and
// midpoint rendering rescale through exact powers of two instead.
const minNormalFloat = 0x1p-1022

// Add incorporates one observation. It panics if x is negative, NaN or
// +Inf: the sketch models physical (non-negative, finite) quantities and
// ingestion layers validate before accumulating.
func (s *QuantileSketch) Add(x float64) {
	if x < 0 || math.IsNaN(x) || math.IsInf(x, 0) {
		panic("stats: QuantileSketch.Add of negative or non-finite value")
	}
	if s.count == 0 {
		s.minSeen, s.maxSeen = x, x
	} else {
		if x < s.minSeen {
			s.minSeen = x
		}
		if x > s.maxSeen {
			s.maxSeen = x
		}
	}
	s.count++
	if x == 0 {
		s.zeros++
		return
	}
	s.bins[s.key(x)]++
	if len(s.bins) > s.maxBins {
		s.collapseLowest()
	}
}

// key maps a positive value onto its bucket index i, covering
// (γ^(i-1), γ^i]. Subnormal values are scaled by 2^52 (an exact
// operation) into the normal range before taking the log.
func (s *QuantileSketch) key(x float64) int {
	if x < minNormalFloat {
		return int(math.Ceil((math.Log(math.Ldexp(x, 52)) - 52*math.Ln2) * s.invLogG))
	}
	return int(math.Ceil(math.Log(x) * s.invLogG))
}

// binValue returns the midpoint estimate of bucket i: 2γ^i/(γ+1). γ^i is
// assembled as 2^k · 2^frac with Ldexp supplying the power of two, so
// the estimate stays within relative α of the bucket even when it lands
// in the subnormal range, where math.Pow loses accuracy.
func (s *QuantileSketch) binValue(i int) float64 {
	e := float64(i) * s.log2Gamma
	k := math.Floor(e)
	m := math.Exp2(e-k) * 2 / (s.gamma + 1)
	return math.Ldexp(m, int(k))
}

// collapseLowest merges the lowest bucket into the next lowest,
// sacrificing low-tail resolution to stay within the bucket cap.
func (s *QuantileSketch) collapseLowest() {
	lowest, second := math.MaxInt, math.MaxInt
	for k := range s.bins {
		switch {
		case k < lowest:
			lowest, second = k, lowest
		case k < second:
			second = k
		}
	}
	s.bins[second] += s.bins[lowest]
	delete(s.bins, lowest)
	s.collapsed = true
}

// Merge combines another sketch into this one; both must have been built
// with the same relative accuracy (it panics otherwise). Merging is
// lossless up to the bucket cap.
func (s *QuantileSketch) Merge(o *QuantileSketch) {
	if s.alpha != o.alpha {
		panic("stats: merging sketches with different relative accuracies")
	}
	if o.count == 0 {
		return
	}
	if s.count == 0 {
		s.minSeen, s.maxSeen = o.minSeen, o.maxSeen
	} else {
		if o.minSeen < s.minSeen {
			s.minSeen = o.minSeen
		}
		if o.maxSeen > s.maxSeen {
			s.maxSeen = o.maxSeen
		}
	}
	s.count += o.count
	s.zeros += o.zeros
	s.collapsed = s.collapsed || o.collapsed
	for k, c := range o.bins {
		s.bins[k] += c
	}
	for len(s.bins) > s.maxBins {
		s.collapseLowest()
	}
}

// Quantile estimates the q-quantile (0 <= q <= 1) as the bucket-midpoint
// approximation of the nearest-rank order statistic, clamped into the
// observed [Min, Max]. It panics if the sketch is empty or q is outside
// [0, 1].
func (s *QuantileSketch) Quantile(q float64) float64 {
	if s.count == 0 {
		panic(ErrEmpty)
	}
	if q < 0 || q > 1 || math.IsNaN(q) {
		panic("stats: quantile probability outside [0, 1]")
	}
	switch q {
	case 0:
		return s.minSeen
	case 1:
		return s.maxSeen
	}
	rank := uint64(q*float64(s.count-1) + 0.5)
	if rank < s.zeros {
		return 0
	}
	keys := make([]int, 0, len(s.bins))
	for k := range s.bins {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	cum := s.zeros
	for _, k := range keys {
		cum += s.bins[k]
		if cum > rank {
			return s.clamp(s.binValue(k))
		}
	}
	return s.maxSeen // unreachable when counts are consistent
}

func (s *QuantileSketch) clamp(v float64) float64 {
	if v < s.minSeen {
		return s.minSeen
	}
	if v > s.maxSeen {
		return s.maxSeen
	}
	return v
}
