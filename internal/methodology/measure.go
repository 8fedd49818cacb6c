package methodology

import (
	"errors"
	"fmt"

	"nodevar/internal/meter"
	"nodevar/internal/power"
	"nodevar/internal/rng"
)

// Target is the system under measurement: the ground-truth traces a
// simulated run produced. SubsetTrace may be nil when only whole-system
// measurements are needed.
type Target struct {
	// Name identifies the system.
	Name string
	// TotalNodes is the number of compute nodes that participated.
	TotalNodes int
	// System is the true whole-system power trace over the core phase.
	System *power.Trace
	// SubsetTrace returns the summed true power trace of a node subset
	// (indices 0..TotalNodes-1, summed in idx order) covering at least
	// [lo, hi]. It is the one way node power is read: a subset
	// measurement, each pilot node (a one-node subset) and the biased
	// ranking all go through it. Providers that keep compact per-tick
	// state (cluster.RunResult) build it without materializing per-node
	// traces and restrict the computed ticks to the window.
	SubsetTrace func(idx []int, lo, hi float64) (*power.Trace, error)
	// PerfGFlops is the benchmark performance credited to the run (for
	// FLOPS/W efficiency).
	PerfGFlops float64
	// CoreLo and CoreHi bound the benchmark's core phase within the
	// traces, for runs recorded with setup and teardown included. Both
	// zero means the traces span exactly the core phase.
	CoreLo, CoreHi float64
}

// coreWindow returns the absolute core-phase bounds within the traces.
func (t Target) coreWindow() (lo, hi float64) {
	if t.CoreHi > t.CoreLo {
		return t.CoreLo, t.CoreHi
	}
	return t.System.Start(), t.System.End()
}

// Validate checks the target.
func (t Target) Validate() error {
	switch {
	case t.TotalNodes <= 0:
		return errors.New("methodology: target needs TotalNodes > 0")
	case t.System == nil || t.System.Len() < 2:
		return errors.New("methodology: target needs a system trace")
	case t.CoreHi < t.CoreLo:
		return errors.New("methodology: core window inverted")
	}
	if t.CoreHi > t.CoreLo {
		if t.CoreLo < t.System.Start()-1e-9 || t.CoreHi > t.System.End()+1e-9 {
			return errors.New("methodology: core window outside the trace span")
		}
	}
	return nil
}

// WindowPlacement says where a sub-run measurement window is placed.
type WindowPlacement int

const (
	// PlaceRandom places the window uniformly at random in the allowed
	// region (an honest Level 1 measurement).
	PlaceRandom WindowPlacement = iota
	// PlaceEarliest starts the window at the earliest allowed time.
	PlaceEarliest
	// PlaceLatest ends the window at the latest allowed time.
	PlaceLatest
	// PlaceCenter centers the window on the core phase.
	PlaceCenter
	// PlaceBest searches for the window with the lowest average power —
	// the "optimal time interval" gaming of TSUBAME-KFC and L-CSC.
	PlaceBest
)

// String names the placement.
func (p WindowPlacement) String() string {
	switch p {
	case PlaceRandom:
		return "random"
	case PlaceEarliest:
		return "earliest"
	case PlaceLatest:
		return "latest"
	case PlaceCenter:
		return "center"
	case PlaceBest:
		return "best (gamed)"
	default:
		return fmt.Sprintf("WindowPlacement(%d)", int(p))
	}
}

// Options configures one measurement.
type Options struct {
	// Placement positions the window when the spec does not require the
	// full run.
	Placement WindowPlacement
	// Meter is the instrument spec (default meter.Reference).
	Meter meter.Spec
	// Model, when non-nil, selects the metering architecture and
	// overrides Meter. The model's own cadence (read period, read-out
	// bucket) governs sampling — the level spec's SamplePeriod is not
	// imposed on it, because that gap is exactly the distortion the
	// model comparison quantifies.
	Model meter.Model
	// BiasLowPowerNodes selects the lowest-power nodes instead of a
	// random subset — the VID-screening gaming described in Section 5.
	BiasLowPowerNodes bool
	// Seed fixes instrument calibration, subset choice and window
	// placement.
	Seed uint64
}

// Measurement is the outcome of applying a spec to a target.
type Measurement struct {
	System    string
	Spec      Spec
	Placement WindowPlacement
	WindowLo  float64
	WindowHi  float64
	NodesUsed int
	NodeIndex []int
	// SubsetAvg is the measured average power of the node subset.
	SubsetAvg power.Watts
	// SystemPower is the reported (extrapolated) whole-system power.
	SystemPower power.Watts
	// Energy is the reported energy over the window scaled to the system
	// (J).
	Energy power.Joules
	// Efficiency is PerfGFlops / SystemPower when performance was given.
	Efficiency power.Efficiency
}

// TrueAverage returns the ground-truth average system power of a target
// over its core phase.
func TrueAverage(t Target) (power.Watts, error) {
	if err := t.Validate(); err != nil {
		return 0, err
	}
	lo, hi := t.coreWindow()
	return t.System.AverageBetween(lo, hi)
}

// Measure applies a spec to a target and returns the reported
// measurement. For subset specs it measures a node subset and
// extrapolates linearly, exactly as the methodology prescribes.
func Measure(t Target, spec Spec, opts Options) (*Measurement, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	r := rng.New(opts.Seed)
	var inst meter.Sampler
	var err error
	if opts.Model != nil {
		// Instrument randomness (calibration, window phase, per-reading
		// noise) comes from a derived stream so r's draws — window
		// placement and node-subset choice — are identical across models
		// under one seed: a model comparison then isolates metering
		// architecture instead of confounding it with subset luck.
		inst, err = opts.Model.NewInstrument(rng.New(opts.Seed ^ 0x6d65746572))
	} else {
		mspec := opts.Meter
		if mspec == (meter.Spec{}) {
			mspec = meter.Reference
		}
		if spec.SamplePeriod > 0 {
			mspec.SamplePeriod = spec.SamplePeriod
		}
		inst, err = meter.New(mspec, r)
	}
	if err != nil {
		return nil, err
	}

	start, end := t.coreWindow()
	core := end - start

	// Aspect 1b: choose the window.
	lo, hi := start, end
	if spec.Timing == WindowInMiddle80 {
		regionLo, regionHi, length := level1Region(spec, start, end)
		switch opts.Placement {
		case PlaceEarliest:
			lo = regionLo
		case PlaceLatest:
			lo = regionHi - length
		case PlaceCenter:
			lo = start + core/2 - length/2
		case PlaceBest:
			best, err := BestWindow(t.System, regionLo, regionHi, length, maxSearchSteps)
			if err != nil {
				return nil, err
			}
			lo = best
		default: // PlaceRandom
			lo = regionLo + r.Float64()*(regionHi-length-regionLo)
		}
		hi = lo + length
	}

	// Aspect 2: choose the node subset.
	trueAvg, err := TrueAverage(t)
	if err != nil {
		return nil, err
	}
	nodeWatts := float64(trueAvg) / float64(t.TotalNodes)
	nNodes, err := spec.RequiredNodes(t.TotalNodes, nodeWatts)
	if err != nil {
		return nil, err
	}

	m := &Measurement{
		System:    t.Name,
		Spec:      spec,
		Placement: opts.Placement,
		WindowLo:  lo,
		WindowHi:  hi,
		NodesUsed: nNodes,
	}

	var subsetTrace *power.Trace
	scale := 1.0
	if nNodes >= t.TotalNodes {
		subsetTrace = t.System
		m.NodeIndex = nil
	} else {
		if t.SubsetTrace == nil {
			return nil, errors.New("methodology: subset measurement needs per-node traces")
		}
		idx := r.SampleWithoutReplacement(t.TotalNodes, nNodes)
		if opts.BiasLowPowerNodes {
			idx, err = lowestPowerNodes(t, nNodes)
			if err != nil {
				return nil, err
			}
		}
		m.NodeIndex = idx
		subsetTrace, err = t.SubsetTrace(idx, lo, hi)
		if err != nil {
			return nil, err
		}
		scale = float64(t.TotalNodes) / float64(nNodes)
	}

	// Aspect 1a: sampled average or integrated energy.
	var avg power.Watts
	if spec.SamplePeriod == 0 {
		e, err := inst.Energy(subsetTrace, lo, hi)
		if err != nil {
			return nil, err
		}
		avg = power.Watts(float64(e) / (hi - lo))
	} else {
		avg, err = inst.AveragePower(subsetTrace, lo, hi)
		if err != nil {
			return nil, err
		}
	}
	m.SubsetAvg = avg
	m.SystemPower = power.Watts(float64(avg) * scale)
	m.Energy = power.Joules(float64(m.SystemPower) * (hi - lo))
	if t.PerfGFlops > 0 {
		m.Efficiency = power.EfficiencyOf(power.GFlops(t.PerfGFlops), m.SystemPower)
	}
	return m, nil
}

// RelativeError returns the signed relative error of the measurement
// against the ground-truth full-core-phase system average.
func (m *Measurement) RelativeError(t Target) (float64, error) {
	truth, err := TrueAverage(t)
	if err != nil {
		return 0, err
	}
	return (float64(m.SystemPower) - float64(truth)) / float64(truth), nil
}

// lowestPowerNodes returns the n nodes with the lowest time-averaged
// power — deliberately biased subset selection.
func lowestPowerNodes(t Target, n int) ([]int, error) {
	type nodeAvg struct {
		idx int
		avg float64
	}
	all := make([]nodeAvg, t.TotalNodes)
	for i := 0; i < t.TotalNodes; i++ {
		tr, err := t.SubsetTrace([]int{i}, t.System.Start(), t.System.End())
		if err != nil {
			return nil, err
		}
		avg, err := tr.Average()
		if err != nil {
			return nil, err
		}
		all[i] = nodeAvg{idx: i, avg: float64(avg)}
	}
	// Partial selection sort is fine for the sizes involved.
	for i := 0; i < n; i++ {
		min := i
		for j := i + 1; j < len(all); j++ {
			if all[j].avg < all[min].avg {
				min = j
			}
		}
		all[i], all[min] = all[min], all[i]
	}
	out := make([]int, n)
	for i := 0; i < n; i++ {
		out[i] = all[i].idx
	}
	return out, nil
}
