package methodology

import (
	"errors"
	"fmt"
	"strings"

	"nodevar/internal/power"
	"nodevar/internal/sampling"
	"nodevar/internal/stats"
)

// Assessment is the measurement-accuracy statement the paper recommends
// every submission carry ("We also recommend that all submissions
// include an assessment of their measurement accuracy", Section 6).
type Assessment struct {
	// Confidence is the confidence level of the statement.
	Confidence float64
	// SubsetAccuracy is the relative half-width of the node-subset
	// extrapolation (Equation 1 with finite population correction).
	SubsetAccuracy float64
	// WindowFraction is the fraction of the core phase covered by the
	// measurement window.
	WindowFraction float64
	// TimeBiasBounded reports whether the window covered the full core
	// phase, making time-variation bias zero by construction.
	TimeBiasBounded bool
	// DataCompleteness is the fraction of expected measurement data that
	// actually arrived (1 when every sample, instrument and node
	// reported; see internal/faults). Zero means "not assessed".
	DataCompleteness float64
	// Degraded reports that the measurement lost data — gaps, meter
	// dropouts or node outages — and the stated accuracy is therefore a
	// lower bound on the true uncertainty.
	Degraded bool
	// Notes carries human-readable caveats.
	Notes []string
}

// WithCompleteness returns the assessment annotated with the observed
// data completeness. Anything below 1 marks the assessment degraded; a
// complete measurement is returned unchanged, so fault-free renderings
// stay byte-identical.
func (a Assessment) WithCompleteness(completeness float64) Assessment {
	if completeness >= 1 || completeness <= 0 {
		return a
	}
	a.DataCompleteness = completeness
	a.Degraded = true
	return a
}

// WithSubsetInterval fills SubsetAccuracy from a measured extrapolation
// interval instead of a planned CV. A zero-center interval — which
// best-effort aggregation over dropped nodes or meters can produce — is
// not a 0% error: the relative accuracy is undefined, so the assessment
// is flagged degraded with a note.
func (a Assessment) WithSubsetInterval(ci stats.Interval) Assessment {
	if rel, ok := ci.RelativeHalfWidthOK(); ok {
		a.SubsetAccuracy = rel
		return a
	}
	a.Degraded = true
	a.Notes = append(a.Notes, "zero-power point estimate: relative accuracy undefined")
	return a
}

// String renders the accuracy statement.
func (a Assessment) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "±%.2f%% subset accuracy at %.0f%% confidence",
		a.SubsetAccuracy*100, a.Confidence*100)
	if a.TimeBiasBounded {
		b.WriteString("; full core phase measured (no window bias)")
	} else {
		fmt.Fprintf(&b, "; only %.0f%% of the core phase measured (window bias unbounded)",
			a.WindowFraction*100)
	}
	if a.Degraded {
		fmt.Fprintf(&b, "; DEGRADED: only %.1f%% of expected data observed — accuracy is a lower bound",
			a.DataCompleteness*100)
	}
	for _, n := range a.Notes {
		b.WriteString("; ")
		b.WriteString(n)
	}
	return b.String()
}

// Assess produces the accuracy statement for a measurement, given the
// machine's (estimated) per-node coefficient of variation.
func Assess(m *Measurement, t Target, nodeCV, confidence float64) (Assessment, error) {
	if m == nil {
		return Assessment{}, errors.New("methodology: nil measurement")
	}
	if err := t.Validate(); err != nil {
		return Assessment{}, err
	}
	if nodeCV <= 0 {
		return Assessment{}, errors.New("methodology: nodeCV must be positive")
	}
	if !(confidence > 0 && confidence < 1) {
		return Assessment{}, errors.New("methodology: confidence must be in (0, 1)")
	}
	a := Assessment{Confidence: confidence}

	// Subset accuracy via the paper's machinery.
	if m.NodesUsed >= t.TotalNodes {
		a.SubsetAccuracy = 0
		a.Notes = append(a.Notes, "whole system measured")
	} else if m.NodesUsed >= 2 {
		plan := sampling.Plan{
			Confidence: confidence,
			Accuracy:   0.01, // placeholder; ExpectedAccuracy ignores it
			CV:         nodeCV,
			Population: t.TotalNodes,
		}
		acc, err := plan.ExpectedAccuracy(m.NodesUsed)
		if err != nil {
			return Assessment{}, err
		}
		a.SubsetAccuracy = acc
	} else {
		a.Notes = append(a.Notes, "single-node subset: no variance estimate possible")
		a.SubsetAccuracy = nodeCV * 10 // effectively unbounded; flag loudly
	}

	// Window coverage, relative to the core phase.
	coreLo, coreHi := t.coreWindow()
	if core := coreHi - coreLo; core > 0 {
		a.WindowFraction = (m.WindowHi - m.WindowLo) / core
	}
	a.TimeBiasBounded = a.WindowFraction >= 1-1e-9
	if !a.TimeBiasBounded && m.Placement == PlaceBest {
		a.Notes = append(a.Notes, "window was optimized; treat the value as a lower bound")
	}
	return a, nil
}

// TenSegmentAverage implements Level 2's literal timing rule: "ten
// equally spaced power averaged measurements spanning the full run". It
// returns the mean of the ten segment averages, which for equal segments
// equals the full-run time-weighted average.
func TenSegmentAverage(tr *power.Trace) (power.Watts, []power.Watts, error) {
	if tr == nil || tr.Len() < 2 {
		return 0, nil, errors.New("methodology: ten-segment average needs a trace")
	}
	start, end := tr.Start(), tr.End()
	segs := make([]power.Watts, 10)
	var sum float64
	for i := 0; i < 10; i++ {
		lo := start + (end-start)*float64(i)/10
		hi := start + (end-start)*float64(i+1)/10
		avg, err := tr.AverageBetween(lo, hi)
		if err != nil {
			return 0, nil, err
		}
		segs[i] = avg
		sum += float64(avg)
	}
	return power.Watts(sum / 10), segs, nil
}
