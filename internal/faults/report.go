package faults

import (
	"fmt"
	"strings"

	"nodevar/internal/obs"
)

// Report is the deterministic account of everything a schedule injected
// into one run. Commands embed it in the run manifest (the v2 "faults"
// section) and chaos tests compare rendered reports byte-for-byte.
type Report struct {
	// Seed is the schedule seed that produced these faults.
	Seed uint64 `json:"seed"`
	// Schedule is the schedule's canonical string rendering.
	Schedule string `json:"schedule"`

	// SamplesIn and SamplesOut count trace samples before and after
	// injection.
	SamplesIn  int `json:"samples_in"`
	SamplesOut int `json:"samples_out"`

	// DropWindows and DroppedSamples describe sample-loss windows.
	DropWindows    int `json:"drop_windows"`
	DroppedSamples int `json:"dropped_samples"`
	// StuckWindows and StuckSamples describe frozen-sensor windows.
	StuckWindows int `json:"stuck_windows"`
	StuckSamples int `json:"stuck_samples"`
	// GlitchNaN and GlitchSpike count corrupted readings by kind.
	GlitchNaN   int `json:"glitch_nan"`
	GlitchSpike int `json:"glitch_spike"`
	// JitteredSamples counts timestamps that moved.
	JitteredSamples int `json:"jittered_samples"`
	// QuantizedSamples counts readings re-quantized by the schedule.
	QuantizedSamples int `json:"quantized_samples"`

	// NodesDropped counts whole-node dropouts.
	NodesDropped int `json:"nodes_dropped"`

	// Completeness is the estimated fraction of trace time still backed
	// by data after injection (1 for a zero schedule).
	Completeness float64 `json:"completeness"`
}

// Injected reports whether any fault actually landed.
func (r *Report) Injected() bool {
	return r.DroppedSamples > 0 || r.StuckSamples > 0 || r.GlitchNaN > 0 ||
		r.GlitchSpike > 0 || r.JitteredSamples > 0 || r.QuantizedSamples > 0 ||
		r.NodesDropped > 0
}

// String renders the report deterministically, one fact per line, for
// byte-comparable chaos-test transcripts.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "faults %s\n", r.Schedule)
	fmt.Fprintf(&b, "  samples: %d -> %d\n", r.SamplesIn, r.SamplesOut)
	fmt.Fprintf(&b, "  dropped: %d samples in %d windows\n", r.DroppedSamples, r.DropWindows)
	fmt.Fprintf(&b, "  stuck: %d samples in %d windows\n", r.StuckSamples, r.StuckWindows)
	fmt.Fprintf(&b, "  glitches: %d NaN, %d spikes\n", r.GlitchNaN, r.GlitchSpike)
	fmt.Fprintf(&b, "  jittered: %d, quantized: %d\n", r.JitteredSamples, r.QuantizedSamples)
	fmt.Fprintf(&b, "  nodes dropped: %d\n", r.NodesDropped)
	fmt.Fprintf(&b, "  completeness: %.4f\n", r.Completeness)
	return b.String()
}

// ManifestSection converts the report into the run manifest's v2
// "faults" section. It returns nil when nothing was injected, so
// fault-free runs write manifests without the section at all.
func (r *Report) ManifestSection() *obs.FaultsSection {
	if r == nil || !r.Injected() {
		return nil
	}
	return &obs.FaultsSection{
		Seed:           r.Seed,
		Schedule:       r.Schedule,
		Completeness:   r.Completeness,
		Degraded:       r.Completeness < 1 || r.NodesDropped > 0,
		DropWindows:    r.DropWindows,
		DroppedSamples: r.DroppedSamples,
		StuckWindows:   r.StuckWindows,
		GlitchNaN:      r.GlitchNaN,
		GlitchSpike:    r.GlitchSpike,
		NodesDropped:   r.NodesDropped,
	}
}

// publish pushes the report's counts into the obs metrics registry in
// one batch per counter.
func (r *Report) publish() {
	addIf := func(c interface{ Add(int64) }, v int) {
		if v > 0 {
			c.Add(int64(v))
		}
	}
	addIf(mDropWindows, r.DropWindows)
	addIf(mDroppedSamps, r.DroppedSamples)
	addIf(mStuckWindows, r.StuckWindows)
	addIf(mStuckSamps, r.StuckSamples)
	addIf(mGlitchNaN, r.GlitchNaN)
	addIf(mGlitchSpike, r.GlitchSpike)
	addIf(mJittered, r.JitteredSamples)
	addIf(mQuantized, r.QuantizedSamples)
	addIf(mNodeDropouts, r.NodesDropped)
}
