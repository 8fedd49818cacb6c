package cluster

import (
	"fmt"

	"nodevar/internal/power"
	"nodevar/internal/rng"
)

// nodeScales holds one node's manufacturing multipliers around 1.0.
type nodeScales struct {
	idle, dynamic, fan float64
}

// Cluster is a set of near-identical nodes sharing a NodeModel, each with
// its own manufacturing multipliers.
type Cluster struct {
	Name    string
	Model   NodeModel
	Ambient float64 // ambient/inlet temperature in °C

	nodes []nodeScales
	// Sums cached for O(1) whole-system power evaluation.
	sumIdle, sumDynamic, sumFan float64
}

// New builds a cluster of n nodes with per-node variation drawn from r.
// It returns an error if the model or variation is invalid or n <= 0.
func New(name string, n int, model NodeModel, v Variation, ambient float64, r *rng.Rand) (*Cluster, error) {
	if n <= 0 {
		return nil, fmt.Errorf("cluster: node count %d must be positive", n)
	}
	if err := model.Validate(); err != nil {
		return nil, err
	}
	if err := v.Validate(); err != nil {
		return nil, err
	}
	outSigma := v.OutlierSigma
	if outSigma == 0 {
		outSigma = 3
	}
	c := &Cluster{Name: name, Model: model, Ambient: ambient, nodes: make([]nodeScales, n)}
	for i := range c.nodes {
		widen := 1.0
		if v.OutlierFraction > 0 && r.Bernoulli(v.OutlierFraction) {
			widen = outSigma
		}
		s := nodeScales{
			idle:    clampPositive(r.Normal(1, v.IdleCV*widen)),
			dynamic: clampPositive(r.Normal(1, v.DynamicCV*widen)),
			fan:     clampPositive(r.Normal(1, v.FanCV*widen)),
		}
		c.nodes[i] = s
		c.sumIdle += s.idle
		c.sumDynamic += s.dynamic
		c.sumFan += s.fan
	}
	return c, nil
}

// clampPositive guards against (vanishingly unlikely) non-physical draws.
func clampPositive(x float64) float64 {
	if x < 0.05 {
		return 0.05
	}
	return x
}

// N returns the number of nodes.
func (c *Cluster) N() int { return len(c.nodes) }

// state captures the time-varying environment shared by all nodes at one
// instant of a balanced run.
type state struct {
	util     float64 // workload utilization in [0, 1]
	tempRise float64 // component temperature rise above ambient, °C
	dynFact  float64 // DVFS dynamic-power factor V²f
}

// nodeDCPower returns one node's DC power in the given state.
func (c *Cluster) nodeDCPower(i int, s state) float64 {
	m := &c.Model
	ns := c.nodes[i]
	thermal := 1 + m.LeakagePerDegree*s.tempRise
	silicon := (m.IdleWatts*ns.idle + m.DynamicWatts*ns.dynamic*s.util*s.dynFact) * thermal
	fan := float64(m.Fan.Power(c.Ambient+s.tempRise)) * ns.fan
	return silicon + fan
}

// systemWallPower returns total wall power of all nodes in a shared state,
// computed in O(1) from the cached multiplier sums plus a PSU correction
// evaluated at the mean node load (exact when the PSU curve is in its
// flat region, which holds for all the presets in this repository).
func (c *Cluster) systemWallPower(s state) float64 {
	m := &c.Model
	n := float64(len(c.nodes))
	thermal := 1 + m.LeakagePerDegree*s.tempRise
	silicon := (m.IdleWatts*c.sumIdle + m.DynamicWatts*c.sumDynamic*s.util*s.dynFact) * thermal
	fan := float64(m.Fan.Power(c.Ambient+s.tempRise)) * c.sumFan
	dcTotal := silicon + fan
	meanDC := dcTotal / n
	return dcTotal / m.PSU.Efficiency(power.Watts(meanDC))
}
