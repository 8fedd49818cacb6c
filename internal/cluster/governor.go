package cluster

import "errors"

// Governor supplies a time-varying DVFS operating point, modeling
// frequency/voltage schedules like the per-matrix-size clock tuning
// L-CSC used for its Green500 run. A nil Governor in RunOptions means
// the static Operating point applies for the whole run.
type Governor interface {
	// OperatingAt returns the operating point at core-phase time t.
	OperatingAt(t float64) Operating
}

// StepGovernor switches operating points at fixed times.
type StepGovernor struct {
	// Times are the switch instants in seconds, strictly increasing.
	Times []float64
	// Points has len(Times)+1 entries: Points[i] applies before Times[i],
	// the final entry after the last switch.
	Points []Operating
}

// NewStepGovernor validates and builds a step schedule.
func NewStepGovernor(times []float64, points []Operating) (*StepGovernor, error) {
	if len(points) != len(times)+1 {
		return nil, errors.New("cluster: StepGovernor needs len(points) == len(times)+1")
	}
	for i := 1; i < len(times); i++ {
		if times[i] <= times[i-1] {
			return nil, errors.New("cluster: StepGovernor times must be strictly increasing")
		}
	}
	for _, p := range points {
		if err := p.Validate(); err != nil {
			return nil, err
		}
	}
	return &StepGovernor{Times: times, Points: points}, nil
}

// OperatingAt returns the scheduled point for time t.
func (g *StepGovernor) OperatingAt(t float64) Operating {
	for i, boundary := range g.Times {
		if t < boundary {
			return g.Points[i]
		}
	}
	return g.Points[len(g.Points)-1]
}

// PowerSaveTail returns a governor mirroring the in-core GPU HPL tuning
// the paper describes: nominal settings while the trailing matrix is
// large, then progressively lower clocks and voltage once the update can
// no longer keep the compute units busy (from tail-start onward, as a
// fraction of the core duration).
func PowerSaveTail(coreDuration, tailStartFrac float64) (*StepGovernor, error) {
	if coreDuration <= 0 || tailStartFrac <= 0 || tailStartFrac >= 1 {
		return nil, errors.New("cluster: invalid PowerSaveTail parameters")
	}
	t0 := coreDuration * tailStartFrac
	t1 := coreDuration * (tailStartFrac + (1-tailStartFrac)/2)
	return NewStepGovernor(
		[]float64{t0, t1},
		[]Operating{
			Nominal,
			{FreqScale: 0.9, VoltScale: 0.94},
			{FreqScale: 0.8, VoltScale: 0.9},
		},
	)
}
