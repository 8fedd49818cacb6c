// Package meter models power-measurement instruments: calibration (gain)
// error, per-sample noise, quantization, periodic sampling, and
// continuously integrating energy meters. It separates what the machine
// actually draws (a power.Trace from the cluster simulator) from what an
// instrument reports — the gap the EE HPC WG methodology's accuracy
// levels are about.
package meter

import (
	"errors"
	"fmt"
	"math"

	"nodevar/internal/obs"
	"nodevar/internal/power"
	"nodevar/internal/rng"
)

// Instrument metrics: one batched add per Measure call (the sampling
// loop itself stays untouched).
var (
	mMeasures = obs.NewCounter("meter.measures")
	mSamples  = obs.NewCounter("meter.samples")
)

// Spec describes an instrument model.
type Spec struct {
	// GainErrorCV is the coefficient of variation of the per-instrument
	// calibration error: each meter instance gets a fixed multiplicative
	// gain drawn from N(1, GainErrorCV). Typical revenue-grade meters are
	// 0.002-0.01; the paper cites 1-1.5% equipment variance.
	GainErrorCV float64
	// NoiseCV is the per-sample multiplicative noise standard deviation.
	NoiseCV float64
	// ResolutionWatts quantizes each reading to this step (0 disables).
	ResolutionWatts float64
	// SamplePeriod is the sampling interval in seconds (default 1, the
	// methodology's Level 1/2 granularity).
	SamplePeriod float64
}

// Validate checks the spec.
func (s Spec) Validate() error {
	switch {
	case !finite(s.GainErrorCV) || !finite(s.NoiseCV) ||
		!finite(s.ResolutionWatts) || !finite(s.SamplePeriod):
		return errors.New("meter: spec fields must be finite")
	case s.GainErrorCV < 0 || s.GainErrorCV > 0.1:
		return fmt.Errorf("meter: GainErrorCV %v outside [0, 0.1]", s.GainErrorCV)
	case s.NoiseCV < 0 || s.NoiseCV > 0.1:
		return fmt.Errorf("meter: NoiseCV %v outside [0, 0.1]", s.NoiseCV)
	case s.ResolutionWatts < 0:
		return errors.New("meter: ResolutionWatts must be non-negative")
	case s.SamplePeriod < 0:
		return errors.New("meter: SamplePeriod must be non-negative")
	}
	return nil
}

// finite reports whether v is neither NaN nor infinite. NaN fails every
// ordered comparison, so without this guard a NaN field would sail
// through the range checks above.
func finite(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0)
}

// Reference is a perfect instrument: no gain error, noise or quantization,
// 1 Hz sampling.
var Reference = Spec{SamplePeriod: 1}

// Meter is one instrument instance with its calibration fixed at
// construction.
type Meter struct {
	spec Spec
	gain float64
	r    *rng.Rand
}

// New draws an instrument instance from the spec using r (which is also
// used for subsequent per-sample noise).
func New(spec Spec, r *rng.Rand) (*Meter, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if spec.SamplePeriod == 0 {
		spec.SamplePeriod = 1
	}
	gain := 1.0
	if spec.GainErrorCV > 0 {
		gain = r.Normal(1, spec.GainErrorCV)
	}
	return &Meter{spec: spec, gain: gain, r: r}, nil
}

// reading passes one true power value through the instrument pipeline.
func (m *Meter) reading(true_ power.Watts) power.Watts {
	return pipeline(float64(true_), m.gain, m.spec.NoiseCV, m.spec.ResolutionWatts, m.r)
}

// pipeline applies the shared instrument error chain — fixed gain,
// per-reading multiplicative noise, quantization, zero clamp — to one
// true power value. Every meter architecture reports through it.
//
// Quantization uses math.Round (half away from zero), which is exact:
// the previous float64(int64(v/q+0.5)) idiom truncated toward zero, so
// negative excursions rounded inconsistently around zero and values
// with v/q+0.5 beyond int64 range collapsed to an implementation-defined
// integer (0 after the clamp on amd64) instead of the nearest step.
func pipeline(v, gain, noiseCV, q float64, r *rng.Rand) power.Watts {
	v *= gain
	if noiseCV > 0 {
		v *= r.Normal(1, noiseCV)
	}
	if q > 0 {
		v = math.Round(v/q) * q
	}
	if v <= 0 {
		// The clamp also normalizes math.Round's negative zero, so
		// reported zero readings are always bit-identical +0.
		v = 0
	}
	return power.Watts(v)
}

// maxMeasureSamples bounds one Measure call's output. Multi-day windows
// at sub-second periods stay far below it; it exists so a degenerate
// period (e.g. 1e-300 from a fuzzer or a typo'd config) is an error
// instead of an allocation storm.
const maxMeasureSamples = 50_000_000

// checkWindow validates a measurement window against the trace span.
// The !(a < b) form also rejects NaN bounds.
func checkWindow(tr *power.Trace, a, b float64) error {
	if !(a < b) {
		return fmt.Errorf("meter: empty measurement window [%v, %v]", a, b)
	}
	if a < tr.Start()-1e-9 || b > tr.End()+1e-9 {
		return fmt.Errorf("meter: window [%v, %v] outside trace span [%v, %v]",
			a, b, tr.Start(), tr.End())
	}
	return nil
}

// gridSize returns how many samples the grid a + i*period places in
// [a, b): the largest n with a + (n-1)*period < b - eps, where eps is a
// fraction of one period so a final grid point landing within epsilon of
// b is deferred to the explicit endpoint sample instead of duplicated.
func gridSize(a, b, period float64) (int, error) {
	span := b - a
	if steps := span / period; !(steps < maxMeasureSamples) {
		return 0, fmt.Errorf("meter: window %v at period %v exceeds %d samples", span, period, maxMeasureSamples)
	}
	eps := period * 1e-9
	n := int(span/period) + 1
	for a+float64(n)*period < b-eps {
		n++
	}
	for n > 1 && a+float64(n-1)*period >= b-eps {
		n--
	}
	return n, nil
}

// walk reads the true trace on the instrument's grid over [a, b] and
// hands each reported sample to emit in time order. Measure keeps the
// samples and AveragePower only integrates them, so both see the same
// grid, the same rng draws and the same instrument counts.
//
// Sample times are exactly a + i*period (each computed from the index,
// never accumulated), so they cannot drift off the grid over long
// windows, and the final sample at b never has a near-duplicate
// predecessor from accumulated float error.
func (m *Meter) walk(tr *power.Trace, a, b float64, emit func(power.Sample)) error {
	if err := checkWindow(tr, a, b); err != nil {
		return err
	}
	period := m.spec.SamplePeriod
	n, err := gridSize(a, b, period)
	if err != nil {
		return err
	}
	cur := tr.Cursor() // sample times only increase, so read sequentially
	for i := 0; i < n; i++ {
		x := a + float64(i)*period
		emit(power.Sample{Time: x, Power: m.reading(cur.At(x))})
	}
	emit(power.Sample{Time: b, Power: m.reading(cur.At(b))})
	mMeasures.Inc()
	mSamples.Add(int64(n + 1))
	return nil
}

// Measure samples the true trace over [a, b] at the instrument's period
// and returns the reported trace. The window must lie within the trace.
func (m *Meter) Measure(tr *power.Trace, a, b float64) (*power.Trace, error) {
	var out []power.Sample
	if err := m.walk(tr, a, b, func(s power.Sample) { out = append(out, s) }); err != nil {
		return nil, err
	}
	return power.NewTrace(out)
}

// AveragePower reports the instrument's time-averaged power over [a, b]
// as computed from its discrete samples — exactly what a Level 1/2
// submission derives. It equals Measure(tr, a, b) then Average(), bit
// for bit and error for error, without keeping the samples.
func (m *Meter) AveragePower(tr *power.Trace, a, b float64) (power.Watts, error) {
	var g power.Integrator
	if err := m.walk(tr, a, b, g.Add); err != nil {
		return 0, err
	}
	return g.Average()
}

// Energy reports continuously integrated energy over [a, b] through the
// instrument's gain (the Level 3 style of measurement: integration
// happens in the meter, so per-sample noise and quantization do not
// apply).
func (m *Meter) Energy(tr *power.Trace, a, b float64) (power.Joules, error) {
	e, err := tr.EnergyBetween(a, b)
	if err != nil {
		return 0, err
	}
	return power.Joules(float64(e) * m.gain), nil
}

// Instrument is anything that can report a windowed average power for a
// true trace: a Meter or one of the windowed/OCC models.
type Instrument interface {
	AveragePower(tr *power.Trace, a, b float64) (power.Watts, error)
}
