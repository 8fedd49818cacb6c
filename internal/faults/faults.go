// Package faults injects deterministic instrument and node failures into
// the measurement pipeline. Real power meters are not the well-behaved
// samplers our simulations assume: nvidia-smi-style collectors drop
// samples and go quiet for whole windows, OCC-style sensors quantize and
// freeze, wall meters glitch to NaN or spike, clocks jitter, and nodes
// disappear mid-run. The injectors here reproduce those behaviours as
// composable, seeded transformations of power.Trace data and node
// populations, so every chaos scenario replays byte-identically from its
// seed.
//
// A Schedule is the unit of configuration: one seed plus a rate for each
// fault class. The zero schedule is a strict no-op — Apply returns the
// input trace untouched (the same pointer), so fault-free runs are
// bit-identical to a build without this package. All fault counts flow
// into the internal/obs metrics registry and into a Report that commands
// embed in the run manifest.
package faults

import (
	"fmt"
	"strings"

	"nodevar/internal/obs"
	"nodevar/internal/rng"
)

// Injection metrics: batched adds once per Apply / measurement, so the
// fault path costs no more atomics than the healthy path.
var (
	mDropWindows  = obs.NewCounter("faults.drop_windows")
	mDroppedSamps = obs.NewCounter("faults.samples_dropped")
	mStuckWindows = obs.NewCounter("faults.stuck_windows")
	mStuckSamps   = obs.NewCounter("faults.samples_stuck")
	mGlitchNaN    = obs.NewCounter("faults.glitch_nan")
	mGlitchSpike  = obs.NewCounter("faults.glitch_spike")
	mJittered     = obs.NewCounter("faults.samples_jittered")
	mQuantized    = obs.NewCounter("faults.samples_quantized")
	mNodeDropouts = obs.NewCounter("faults.node_dropouts")
)

// Schedule is one deterministic fault-injection configuration. All rates
// default to zero; the zero value injects nothing.
type Schedule struct {
	// Seed drives every random decision the schedule makes. Two runs of
	// the same schedule over the same inputs are byte-identical.
	Seed uint64

	// SampleDropRate is the per-sample probability that a drop window
	// begins at that sample: the meter goes quiet for DropWindowSec and
	// the samples are lost (nvidia-smi's part-time sampling).
	SampleDropRate float64
	// DropWindowSec is the dropout window length in seconds (default 5).
	DropWindowSec float64

	// StuckRate is the per-sample probability that the reading freezes at
	// its current value for StuckSec (OCC-style stale sensors).
	StuckRate float64
	// StuckSec is the stuck window length in seconds (default 10).
	StuckSec float64

	// GlitchRate is the per-sample probability of a corrupted reading:
	// NaN with probability NaNFraction, otherwise a spike of SpikeFactor
	// times the true value.
	GlitchRate float64
	// SpikeFactor multiplies glitched readings (default 4).
	SpikeFactor float64
	// NaNFraction is the fraction of glitches emitted as NaN (default 0.5).
	NaNFraction float64

	// QuantizeWatts re-quantizes every reading to this step, on top of
	// whatever the instrument model already did (0 disables).
	QuantizeWatts float64

	// ClockJitter perturbs interior sample timestamps by a zero-mean
	// normal with standard deviation ClockJitter times the local sample
	// interval. Monotonicity is preserved. Must be in [0, 0.4].
	ClockJitter float64

	// NodeDropRate is the per-node probability of the node disappearing
	// mid-run (whole-node dropout).
	NodeDropRate float64
}

// Validate checks the schedule.
func (s Schedule) Validate() error {
	rates := []struct {
		name string
		v    float64
	}{
		{"SampleDropRate", s.SampleDropRate},
		{"StuckRate", s.StuckRate},
		{"GlitchRate", s.GlitchRate},
		{"NaNFraction", s.NaNFraction},
		{"NodeDropRate", s.NodeDropRate},
	}
	for _, r := range rates {
		if r.v < 0 || r.v > 1 {
			return fmt.Errorf("faults: %s %v outside [0, 1]", r.name, r.v)
		}
	}
	switch {
	case s.DropWindowSec < 0:
		return fmt.Errorf("faults: DropWindowSec %v negative", s.DropWindowSec)
	case s.StuckSec < 0:
		return fmt.Errorf("faults: StuckSec %v negative", s.StuckSec)
	case s.SpikeFactor < 0:
		return fmt.Errorf("faults: SpikeFactor %v negative", s.SpikeFactor)
	case s.QuantizeWatts < 0:
		return fmt.Errorf("faults: QuantizeWatts %v negative", s.QuantizeWatts)
	case s.ClockJitter < 0 || s.ClockJitter > 0.4:
		return fmt.Errorf("faults: ClockJitter %v outside [0, 0.4]", s.ClockJitter)
	}
	return nil
}

// IsZero reports whether the schedule injects nothing: every fault rate
// is zero, making every injector a strict pass-through.
func (s Schedule) IsZero() bool {
	return s.SampleDropRate == 0 && s.StuckRate == 0 && s.GlitchRate == 0 &&
		s.QuantizeWatts == 0 && s.ClockJitter == 0 && s.NodeDropRate == 0
}

// withDefaults fills the duration/shape parameters that have non-zero
// defaults. Rates are never defaulted.
func (s Schedule) withDefaults() Schedule {
	if s.DropWindowSec == 0 {
		s.DropWindowSec = 5
	}
	if s.StuckSec == 0 {
		s.StuckSec = 10
	}
	if s.SpikeFactor == 0 {
		s.SpikeFactor = 4
	}
	if s.NaNFraction == 0 {
		s.NaNFraction = 0.5
	}
	return s
}

// String renders the non-zero schedule entries in a fixed order, so two
// equal schedules always print identically (reports embed this).
func (s Schedule) String() string {
	if s.IsZero() {
		return fmt.Sprintf("seed=%d (no faults)", s.Seed)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "seed=%d", s.Seed)
	add := func(name string, v float64) {
		if v != 0 {
			fmt.Fprintf(&b, " %s=%g", name, v)
		}
	}
	add("drop", s.SampleDropRate)
	add("dropwin", s.DropWindowSec)
	add("stuck", s.StuckRate)
	add("stucksec", s.StuckSec)
	add("glitch", s.GlitchRate)
	add("spike", s.SpikeFactor)
	add("nanfrac", s.NaNFraction)
	add("quant", s.QuantizeWatts)
	add("jitter", s.ClockJitter)
	add("nodedrop", s.NodeDropRate)
	return b.String()
}

// streams are the schedule's independent random streams, derived from
// the seed in a fixed order so enabling one fault class never perturbs
// another's decisions.
type streams struct {
	jitter, stuck, glitch, drop, node *rng.Rand
}

// streams derives the fault streams for this schedule's seed.
func (s Schedule) streams() streams {
	parent := rng.New(s.Seed)
	var st streams
	st.jitter = parent.Split()
	st.stuck = parent.Split()
	st.glitch = parent.Split()
	st.drop = parent.Split()
	// The fifth split is unused but stays: removing it would move the
	// node stream and change every replayed node dropout.
	parent.Split()
	st.node = parent.Split()
	return st
}
