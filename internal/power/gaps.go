package power

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// This file adds the gap-tolerant query path used when a trace came from
// a faulty instrument: real meters drop samples, go quiet for whole
// windows, and emit NaN glitches (nvidia-smi's part-time sampling, OCC
// sensor outages). The tolerant queries integrate only over time that is
// actually backed by data and report how much of the window that was, so
// a degraded measurement is flagged instead of silently wrong.

// ErrNoData is returned by tolerant queries when none of the requested
// window is backed by sample data.
var ErrNoData = errors.New("power: no sample data in window")

// WindowQuality describes how much of a queried window was actually
// covered by sample data.
type WindowQuality struct {
	// Completeness is covered time divided by window length, in [0, 1].
	Completeness float64
	// Gaps is the number of over-threshold sampling gaps intersecting the
	// window.
	Gaps int
	// LongestGap is the longest such gap in seconds (0 when none).
	LongestGap float64
	// Dropped counts samples removed by Sanitize before the query
	// (filled in by callers that sanitize first).
	Dropped int
}

// fullQuality is the quality of an uninterrupted window.
func fullQuality() WindowQuality { return WindowQuality{Completeness: 1} }

// gapsIn returns the sampling gaps longer than maxGap whose intersection
// with [a, b] is non-empty, clipped to the window.
func (t *Trace) gapsIn(a, b, maxGap float64) [][2]float64 {
	s := t.samples
	// First sample pair that could end inside the window.
	i := sort.Search(len(s), func(k int) bool { return s[k].Time > a })
	if i == 0 {
		i = 1
	}
	var gaps [][2]float64
	for ; i < len(s) && s[i-1].Time < b; i++ {
		if s[i].Time-s[i-1].Time <= maxGap {
			continue
		}
		lo, hi := s[i-1].Time, s[i].Time
		if lo < a {
			lo = a
		}
		if hi > b {
			hi = b
		}
		if hi > lo {
			gaps = append(gaps, [2]float64{lo, hi})
		}
	}
	return gaps
}

// EnergyBetweenTolerant integrates power over [a, b] while treating
// sample spacings larger than maxGap as data gaps: the gap intervals
// contribute no energy, and the returned quality reports the fraction of
// the window that was covered. With maxGap <= 0 or a window containing
// no gaps, the result is bit-identical to EnergyBetween. The window must
// lie within the trace span, as for EnergyBetween.
func (t *Trace) EnergyBetweenTolerant(a, b, maxGap float64) (Joules, WindowQuality, error) {
	if len(t.samples) < 2 {
		return 0, WindowQuality{}, ErrShortTrace
	}
	if a > b {
		a, b = b, a
	}
	if a < t.Start()-1e-9 || b > t.End()+1e-9 {
		return 0, WindowQuality{}, fmt.Errorf("power: window [%v, %v] outside trace span [%v, %v]",
			a, b, t.Start(), t.End())
	}
	if maxGap <= 0 {
		e, err := t.EnergyBetween(a, b)
		return e, fullQuality(), err
	}
	gaps := t.gapsIn(a, b, maxGap)
	if len(gaps) == 0 {
		e, err := t.EnergyBetween(a, b)
		return e, fullQuality(), err
	}
	q := WindowQuality{Gaps: len(gaps)}
	var gapTime float64
	for _, g := range gaps {
		span := g[1] - g[0]
		gapTime += span
		if span > q.LongestGap {
			q.LongestGap = span
		}
	}
	window := b - a
	covered := window - gapTime
	if window > 0 {
		q.Completeness = covered / window
	}
	if covered <= 0 {
		return 0, q, ErrNoData
	}
	// Integrate the covered segments between consecutive gaps.
	var total float64
	lo := a
	for _, g := range gaps {
		if g[0] > lo {
			e, err := t.EnergyBetween(lo, g[0])
			if err != nil {
				return 0, q, err
			}
			total += float64(e)
		}
		lo = g[1]
	}
	if lo < b {
		e, err := t.EnergyBetween(lo, b)
		if err != nil {
			return 0, q, err
		}
		total += float64(e)
	}
	return Joules(total), q, nil
}

// AverageBetweenTolerant returns the time-weighted average power over
// the covered portion of [a, b], treating sample spacings larger than
// maxGap as data gaps, plus the window's data quality. With no gaps the
// result is bit-identical to AverageBetween.
func (t *Trace) AverageBetweenTolerant(a, b, maxGap float64) (Watts, WindowQuality, error) {
	if a == b {
		return t.At(a), fullQuality(), nil
	}
	e, q, err := t.EnergyBetweenTolerant(a, b, maxGap)
	if err != nil {
		return 0, q, err
	}
	if a > b {
		a, b = b, a
	}
	if q.Gaps == 0 {
		// No gaps: divide by the full window so the fast path stays
		// bit-identical to AverageBetween.
		return Watts(float64(e) / (b - a)), q, nil
	}
	covered := (b - a) * q.Completeness
	return Watts(float64(e) / covered), q, nil
}

// Sanitize returns the trace with non-finite power readings removed,
// plus the number of samples dropped. A clean trace is returned
// unchanged (the same *Trace), so the no-fault path is untouched. It
// returns an error if fewer than two finite samples remain.
func (t *Trace) Sanitize() (*Trace, int, error) {
	dirty := 0
	for _, s := range t.samples {
		if !isFinite(float64(s.Power)) {
			dirty++
		}
	}
	if dirty == 0 {
		return t, 0, nil
	}
	out := make([]Sample, 0, len(t.samples)-dirty)
	for _, s := range t.samples {
		if isFinite(float64(s.Power)) {
			out = append(out, s)
		}
	}
	if len(out) < 2 {
		return nil, dirty, ErrShortTrace
	}
	nt, err := NewTrace(out)
	if err != nil {
		return nil, dirty, err
	}
	return nt, dirty, nil
}

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
