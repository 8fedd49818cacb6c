package power

import "fmt"

// Segment identifies a fraction of a run's core phase, expressed in
// normalized time: Lo and Hi are fractions of the core-phase duration in
// [0, 1].
type Segment struct {
	Lo, Hi float64
}

// Standard segments used throughout the paper.
var (
	// FullCore is the entire core phase — the paper's recommended
	// measurement window.
	FullCore = Segment{0, 1}
	// First20 is the first 20% of the core phase (Table 2, column 3).
	First20 = Segment{0, 0.2}
	// Last20 is the last 20% of the core phase (Table 2, column 4).
	Last20 = Segment{0.8, 1}
	// Middle80 is the middle 80% within which Level 1 windows must lie.
	Middle80 = Segment{0.1, 0.9}
)

// Validate returns an error unless 0 <= Lo < Hi <= 1.
func (s Segment) Validate() error {
	if !(s.Lo >= 0 && s.Lo < s.Hi && s.Hi <= 1) {
		return fmt.Errorf("power: invalid segment [%v, %v]", s.Lo, s.Hi)
	}
	return nil
}

// Window maps the normalized segment onto the absolute time span
// [start, end].
func (s Segment) Window(start, end float64) (a, b float64) {
	d := end - start
	return start + s.Lo*d, start + s.Hi*d
}

// SegmentAverage returns the time-weighted average power of the trace over
// the given normalized segment of its span.
func SegmentAverage(t *Trace, s Segment) (Watts, error) {
	if err := s.Validate(); err != nil {
		return 0, err
	}
	a, b := s.Window(t.Start(), t.End())
	return t.AverageBetween(a, b)
}

// SegmentReport holds the Table 2 row for one run: the average power over
// the full core phase, its first 20% and its last 20%.
type SegmentReport struct {
	Duration float64
	Core     Watts
	First20  Watts
	Last20   Watts
}

// MaxSpread returns the largest pairwise relative difference between the
// three segment averages, relative to the core average — the paper's
// measure of how badly window choice can move a Level-1 result.
func (r SegmentReport) MaxSpread() float64 {
	vals := []Watts{r.Core, r.First20, r.Last20}
	lo, hi := vals[0], vals[0]
	for _, v := range vals[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if r.Core <= 0 {
		return 0
	}
	return float64(hi-lo) / float64(r.Core)
}

// Segments computes the SegmentReport of a trace.
func Segments(t *Trace) (SegmentReport, error) {
	core, err := SegmentAverage(t, FullCore)
	if err != nil {
		return SegmentReport{}, err
	}
	first, err := SegmentAverage(t, First20)
	if err != nil {
		return SegmentReport{}, err
	}
	last, err := SegmentAverage(t, Last20)
	if err != nil {
		return SegmentReport{}, err
	}
	return SegmentReport{
		Duration: t.Duration(),
		Core:     core,
		First20:  first,
		Last20:   last,
	}, nil
}
