// Package workload models the balanced, floating-point-heavy workloads
// the paper measures under: HPL (via the progression model in
// internal/hpl), the FIRESTARTER and MPrime stress tests, and a
// Rodinia-CFD-like iterative GPU kernel. Each workload reports the
// machine utilization over its core phase and satisfies cluster.Load.
package workload

import (
	"errors"
	"math"

	"nodevar/internal/hpl"
)

// Workload is a utilization profile over a core phase.
type Workload interface {
	// CoreDuration returns the core-phase length in seconds.
	CoreDuration() float64
	// Utilization returns machine utilization in [0, 1] at core-phase
	// time t (0 outside the phase).
	Utilization(t float64) float64
}

// HPL adapts an hpl.Run as a workload.
type HPL struct {
	Run *hpl.Run
}

// NewHPL wraps a simulated HPL progression.
func NewHPL(run *hpl.Run) (*HPL, error) {
	if run == nil || len(run.Steps) == 0 {
		return nil, errors.New("workload: nil or empty HPL run")
	}
	return &HPL{Run: run}, nil
}

// CoreDuration returns the run's core-phase length.
func (w *HPL) CoreDuration() float64 { return w.Run.CoreDuration }

// Utilization returns the factorization's utilization at time t.
func (w *HPL) Utilization(t float64) float64 { return w.Run.UtilizationAt(t) }

// Constant is a fixed-utilization workload, the shape of processor stress
// tests.
type Constant struct {
	Duration float64
	Level    float64
}

// CoreDuration returns the configured duration.
func (w Constant) CoreDuration() float64 { return w.Duration }

// Utilization returns the constant level inside the phase, 0 outside.
func (w Constant) Utilization(t float64) float64 {
	if t < 0 || t >= w.Duration {
		return 0
	}
	return w.Level
}

// Firestarter returns the FIRESTARTER processor stress test: a
// near-worst-case constant full load (Hackenberg et al., IGCC'13), used by
// TU Dresden in Table 3.
func Firestarter(duration float64) Constant {
	return Constant{Duration: duration, Level: 1}
}

// MPrime returns the MPrime (Prime95) torture test used by LRZ in
// Table 3: sustained but slightly below worst-case load.
func MPrime(duration float64) Constant {
	return Constant{Duration: duration, Level: 0.94}
}

// Iterative models a solver that alternates compute kernels with
// host-side bookkeeping, like the Rodinia CFD solver used on Titan's GPUs
// in Table 3: utilization oscillates between High (kernel) and Low
// (transfer/reduction) with the given period.
type Iterative struct {
	Duration  float64
	High, Low float64
	// Period is the iteration period in seconds; the kernel occupies
	// DutyCycle of it.
	Period    float64
	DutyCycle float64
}

// NewIterative validates and builds an iterative workload.
func NewIterative(duration, high, low, period, duty float64) (*Iterative, error) {
	switch {
	case duration <= 0 || period <= 0:
		return nil, errors.New("workload: duration and period must be positive")
	case high < low || low < 0 || high > 1:
		return nil, errors.New("workload: utilization levels invalid")
	case duty <= 0 || duty >= 1:
		return nil, errors.New("workload: duty cycle outside (0, 1)")
	}
	return &Iterative{Duration: duration, High: high, Low: low, Period: period, DutyCycle: duty}, nil
}

// RodiniaCFD returns a Rodinia-CFD-like GPU workload.
func RodiniaCFD(duration float64) *Iterative {
	w, err := NewIterative(duration, 0.96, 0.55, 20, 0.75)
	if err != nil {
		// Unreachable: constants are valid.
		panic(err)
	}
	return w
}

// CoreDuration returns the configured duration.
func (w *Iterative) CoreDuration() float64 { return w.Duration }

// Utilization alternates between High and Low with the configured period.
func (w *Iterative) Utilization(t float64) float64 {
	if t < 0 || t >= w.Duration {
		return 0
	}
	phase := math.Mod(t, w.Period) / w.Period
	if phase < w.DutyCycle {
		return w.High
	}
	return w.Low
}
