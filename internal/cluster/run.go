package cluster

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"nodevar/internal/obs"
	"nodevar/internal/power"
)

// Simulator metrics: one batched add per run / subset-trace request.
// SubsetTraceBetween is the one per-node reader methodology uses, so
// cluster.subset_traces and cluster.subset_samples count subset
// measurements, each pilot node read (a one-node subset) and each node
// read of a biased low-power ranking alike.
var (
	mClusterRuns   = obs.NewCounter("cluster.runs")
	mClusterTicks  = obs.NewCounter("cluster.ticks")
	mSubsetTraces  = obs.NewCounter("cluster.subset_traces")
	mSubsetSamples = obs.NewCounter("cluster.subset_samples")
)

// Load is a balanced workload as seen by the cluster: a core-phase
// duration and a machine utilization at each instant of it. The paper's
// inter-node analysis (Section 4) explicitly assumes balanced workloads
// such as HPL, FIRESTARTER or MPrime, where all nodes see the same load.
type Load interface {
	// CoreDuration returns the length of the core phase in seconds.
	CoreDuration() float64
	// Utilization returns machine utilization in [0, 1] at core-phase
	// time t.
	Utilization(t float64) float64
}

// RunOptions configures a simulated run.
type RunOptions struct {
	// SamplePeriod is the simulation/sampling step in seconds
	// (default 1, the methodology's Level 1/2 granularity).
	SamplePeriod float64
	// Operating is the DVFS operating point (default Nominal).
	Operating Operating
	// Governor, when non-nil, supplies a time-varying operating point and
	// overrides Operating.
	Governor Governor
	// MaxSamples caps the number of simulation steps; the period is
	// stretched for very long runs so memory stays bounded
	// (default 200000).
	MaxSamples int
	// ColdStart starts components at ambient temperature instead of the
	// idle-steady temperature, accentuating the warm-up ramp.
	ColdStart bool
}

func (o *RunOptions) fill() error {
	if o.SamplePeriod == 0 {
		o.SamplePeriod = 1
	}
	if !(o.SamplePeriod > 0) {
		return errors.New("cluster: SamplePeriod must be positive")
	}
	if o.MaxSamples == 0 {
		o.MaxSamples = 200000
	}
	if o.MaxSamples < 16 {
		return fmt.Errorf("cluster: MaxSamples %d too small", o.MaxSamples)
	}
	if o.Operating == (Operating{}) {
		o.Operating = Nominal
	}
	return o.Operating.Validate()
}

// RunResult is a completed simulated run over the workload's core phase.
type RunResult struct {
	Cluster *Cluster
	// System is the total compute-node wall power over the core phase.
	System *power.Trace
	// NodeAverages is each node's time-averaged wall power over the core
	// phase — the quantity the paper histograms in Figure 2 and
	// summarizes in Table 4.
	NodeAverages []float64
	// Duration is the core-phase length in seconds.
	Duration float64

	// Per-tick state kept for on-demand per-node traces.
	times   []float64
	thermal []float64 // 1 + leak*ΔT at each tick
	utilDyn []float64 // util * V²f at each tick
	fan     []float64 // controller fan power at each tick (scale 1.0)
}

// Run simulates the workload's core phase on the cluster.
func Run(c *Cluster, load Load, opts RunOptions) (*RunResult, error) {
	if err := opts.fill(); err != nil {
		return nil, err
	}
	duration := load.CoreDuration()
	if !(duration > 0 && duration < math.Inf(1)) {
		return nil, fmt.Errorf("cluster: workload core duration %v is not positive and finite", duration)
	}
	dt := opts.SamplePeriod
	if steps := duration / dt; steps > float64(opts.MaxSamples-1) {
		dt = duration / float64(opts.MaxSamples-1)
	}

	res := &RunResult{Cluster: c, Duration: duration}
	m := &c.Model

	// Thermal state: temperature rise above ambient.
	tempRise := m.SteadyTempRise(0)
	if opts.ColdStart {
		tempRise = 0
	}
	dynFact := opts.Operating.DynamicFactor()

	samples := make([]power.Sample, 0, int(duration/dt)+2)
	var intThermal, intUtilDyn, intFan, intTime float64

	for t := 0.0; t <= duration; t += dt {
		util := load.Utilization(t)
		if util < 0 {
			util = 0
		}
		if util > 1 {
			util = 1
		}
		if opts.Governor != nil {
			dynFact = opts.Governor.OperatingAt(t).DynamicFactor()
		}
		// Advance temperature toward the steady state for this load.
		// (First tick uses the initial condition unchanged: dtEff = 0.)
		st := state{util: util, tempRise: tempRise, dynFact: dynFact}
		total := c.systemWallPower(st)
		samples = append(samples, power.Sample{Time: t, Power: power.Watts(total)})

		res.times = append(res.times, t)
		th := 1 + m.LeakagePerDegree*tempRise
		fanW := float64(m.Fan.Power(c.Ambient + tempRise))
		res.thermal = append(res.thermal, th)
		res.utilDyn = append(res.utilDyn, util*dynFact)
		res.fan = append(res.fan, fanW)

		// Accumulate basis integrals (rectangle rule over [t, t+dtEff)).
		dtEff := dt
		if t+dt > duration {
			dtEff = duration - t
		}
		if dtEff > 0 {
			intThermal += th * dtEff
			intUtilDyn += util * dynFact * th * dtEff
			intFan += fanW * dtEff
			intTime += dtEff
		}
		// Thermal relaxation over the step.
		steady := m.SteadyTempRise(util)
		decay := 1 - expNeg(dtEff/m.ThermalTau)
		tempRise += (steady - tempRise) * decay
	}

	// Ensure both the system trace and the per-node tick state extend to
	// exactly the core-phase end.
	if last := samples[len(samples)-1]; last.Time < duration {
		util := load.Utilization(duration - 1e-9)
		if util < 0 {
			util = 0
		}
		if util > 1 {
			util = 1
		}
		st := state{util: util, tempRise: tempRise, dynFact: dynFact}
		samples = append(samples, power.Sample{
			Time:  duration,
			Power: power.Watts(c.systemWallPower(st)),
		})
		res.times = append(res.times, duration)
		res.thermal = append(res.thermal, 1+m.LeakagePerDegree*tempRise)
		res.utilDyn = append(res.utilDyn, util*dynFact)
		res.fan = append(res.fan, float64(m.Fan.Power(c.Ambient+tempRise)))
	}
	tr, err := power.NewTrace(samples)
	if err != nil {
		return nil, err
	}
	res.System = tr
	mClusterRuns.Inc()
	mClusterTicks.Add(int64(len(res.times)))

	// Per-node time-averaged wall power from the basis integrals.
	res.NodeAverages = make([]float64, c.N())
	for i, ns := range c.nodes {
		dcAvg := (m.IdleWatts*ns.idle*intThermal +
			m.DynamicWatts*ns.dynamic*intUtilDyn +
			ns.fan*intFan) / intTime
		res.NodeAverages[i] = float64(m.PSU.WallPower(power.Watts(dcAvg)))
	}
	return res, nil
}

// NodeTrace reconstructs the wall-power trace of one node from the
// retained per-tick state. It is the per-node reference that
// SubsetTraceBetween is checked against. It panics if i is out of range.
func (r *RunResult) NodeTrace(i int) *power.Trace {
	c := r.Cluster
	if i < 0 || i >= c.N() {
		panic(fmt.Sprintf("cluster: node index %d out of range [0, %d)", i, c.N()))
	}
	m := &c.Model
	ns := c.nodes[i]
	samples := make([]power.Sample, len(r.times))
	for k, t := range r.times {
		dc := m.IdleWatts*ns.idle*r.thermal[k] +
			m.DynamicWatts*ns.dynamic*r.utilDyn[k]*r.thermal[k] +
			ns.fan*r.fan[k]
		samples[k] = power.Sample{Time: t, Power: m.PSU.WallPower(power.Watts(dc))}
	}
	tr, err := power.NewTrace(samples)
	if err != nil {
		// Unreachable: times came from a strictly increasing tick source.
		panic(err)
	}
	return tr
}

// SubsetTraceBetween returns the summed wall-power trace of a node subset
// over the ticks covering [lo, hi], in one pass over the tick state
// without materializing per-node traces. The per-tick accumulation
// follows idx order, so the result is sample-for-sample identical to
// summing the individual NodeTrace outputs. The returned trace starts at
// the last tick at or before lo and ends at the first tick at or after hi
// (clamped to the run), so interpolated reads within the window are
// identical to reads on the whole-run subset trace while only the
// window's ticks are computed.
func (r *RunResult) SubsetTraceBetween(idx []int, lo, hi float64) (*power.Trace, error) {
	c := r.Cluster
	if len(idx) == 0 {
		return nil, errors.New("cluster: empty node subset")
	}
	for _, i := range idx {
		if i < 0 || i >= c.N() {
			return nil, fmt.Errorf("cluster: node index %d out of range [0, %d)", i, c.N())
		}
	}
	if hi < lo {
		lo, hi = hi, lo
	}
	klo := sort.Search(len(r.times), func(k int) bool { return r.times[k] >= lo })
	if klo == len(r.times) {
		klo--
	}
	if klo > 0 && r.times[klo] > lo {
		klo--
	}
	khi := sort.Search(len(r.times), func(k int) bool { return r.times[k] >= hi })
	if khi == len(r.times) {
		khi--
	}
	// A trace needs at least two samples; widen degenerate windows.
	if khi == klo {
		if khi+1 < len(r.times) {
			khi++
		} else if klo > 0 {
			klo--
		}
	}
	m := &c.Model
	samples := make([]power.Sample, khi-klo+1)
	for k := range samples {
		samples[k].Time = r.times[klo+k]
	}
	thermal, utilDyn, fan := r.thermal[klo:khi+1], r.utilDyn[klo:khi+1], r.fan[klo:khi+1]
	// Node-outer, tick-inner: each tick still adds its nodes in idx order,
	// and the hoisted products are the left-associated prefixes of
	// NodeTrace's expression, so every sum is bit-identical.
	for _, i := range idx {
		ns := c.nodes[i]
		idle, dyn := m.IdleWatts*ns.idle, m.DynamicWatts*ns.dynamic
		for k := range samples {
			dc := idle*thermal[k] + dyn*utilDyn[k]*thermal[k] + ns.fan*fan[k]
			samples[k].Power += m.PSU.WallPower(power.Watts(dc))
		}
	}
	mSubsetTraces.Inc()
	mSubsetSamples.Add(int64(len(samples)))
	return power.NewTrace(samples)
}

// expNeg returns exp(-x) guarding the x<0 impossible case.
func expNeg(x float64) float64 {
	if x <= 0 {
		return 1
	}
	return math.Exp(-x)
}
