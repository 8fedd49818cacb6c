package cluster

import (
	"fmt"
	"math"

	"nodevar/internal/power"
)

// PerNodeLoad is a workload whose utilization differs across nodes —
// data-dependent applications, stragglers, partially idle partitions.
// The paper's sampling guarantees explicitly do NOT cover this case
// ("this methodology will not be appropriate in scenarios where the
// distribution of per-node power consumption contains many outliers or
// is heavily skewed"); this simulator path exists to demonstrate why.
type PerNodeLoad interface {
	// CoreDuration returns the run length in seconds.
	CoreDuration() float64
	// NodeUtilization returns node i's utilization in [0, 1] at time t.
	NodeUtilization(i int, t float64) float64
}

// PerNodeResult is a completed imbalanced run. Per-node traces are not
// retained (state is O(nodes) per tick); the system trace and the
// per-node time averages are.
type PerNodeResult struct {
	Cluster      *Cluster
	System       *power.Trace
	NodeAverages []float64
	Duration     float64
}

// RunPerNode simulates an imbalanced workload, tracking an independent
// thermal state per node. Cost is O(nodes × ticks).
func RunPerNode(c *Cluster, load PerNodeLoad, opts RunOptions) (*PerNodeResult, error) {
	if err := opts.fill(); err != nil {
		return nil, err
	}
	duration := load.CoreDuration()
	if !(duration > 0 && duration < math.Inf(1)) {
		return nil, fmt.Errorf("cluster: workload core duration %v is not positive and finite", duration)
	}
	dt := opts.SamplePeriod
	// Per-node simulation is O(N) per tick; keep the default tick budget
	// modest.
	maxTicks := opts.MaxSamples
	if steps := duration / dt; steps > float64(maxTicks-1) {
		dt = duration / float64(maxTicks-1)
	}

	m := &c.Model
	n := c.N()
	dynFact := opts.Operating.DynamicFactor()
	tempRise := make([]float64, n)
	init := m.SteadyTempRise(0)
	if opts.ColdStart {
		init = 0
	}
	for i := range tempRise {
		tempRise[i] = init
	}
	nodeEnergy := make([]float64, n) // DC watt-seconds per node
	var intTime float64
	var samples []power.Sample

	for t := 0.0; t <= duration; t += dt {
		if opts.Governor != nil {
			dynFact = opts.Governor.OperatingAt(t).DynamicFactor()
		}
		dtEff := dt
		if t+dt > duration {
			dtEff = duration - t
		}
		var totalDC float64
		for i := 0; i < n; i++ {
			util := load.NodeUtilization(i, t)
			if util < 0 {
				util = 0
			}
			if util > 1 {
				util = 1
			}
			st := state{util: util, tempRise: tempRise[i], dynFact: dynFact}
			dc := c.nodeDCPower(i, st)
			totalDC += dc
			if dtEff > 0 {
				nodeEnergy[i] += dc * dtEff
			}
			steady := m.SteadyTempRise(util)
			decay := 1 - expNeg(dtEff/m.ThermalTau)
			tempRise[i] += (steady - tempRise[i]) * decay
		}
		meanDC := totalDC / float64(n)
		wall := totalDC / m.PSU.Efficiency(power.Watts(meanDC))
		samples = append(samples, power.Sample{Time: t, Power: power.Watts(wall)})
		if dtEff > 0 {
			intTime += dtEff
		}
	}

	if last := samples[len(samples)-1]; last.Time < duration {
		samples = append(samples, power.Sample{Time: duration, Power: last.Power})
	}
	tr, err := power.NewTrace(samples)
	if err != nil {
		return nil, err
	}
	res := &PerNodeResult{
		Cluster:      c,
		System:       tr,
		NodeAverages: make([]float64, n),
		Duration:     duration,
	}
	for i := range res.NodeAverages {
		dcAvg := nodeEnergy[i] / intTime
		res.NodeAverages[i] = float64(m.PSU.WallPower(power.Watts(dcAvg)))
	}
	return res, nil
}
