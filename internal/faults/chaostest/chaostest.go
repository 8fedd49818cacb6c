// Package chaostest is the chaos-test harness for the measurement
// pipeline: it runs one end-to-end scenario — simulate a cluster, inject
// a fault schedule into its power data and node population, then analyze
// the damaged measurement with the gap-tolerant and best-effort paths —
// and returns a fully deterministic Outcome. The invariants the test
// suite asserts over it:
//
//  1. A zero fault schedule is invisible: the degraded pipeline returns
//     results bit-identical to the healthy fast path.
//  2. The same scenario replays byte-identically from its seed.
//  3. Any run that lost data is flagged degraded, with its completeness.
//  4. Never a silent wrong answer: whenever the degraded estimate
//     differs from the healthy one, the outcome says so.
package chaostest

import (
	"fmt"
	"math"
	"strings"

	"nodevar/internal/cluster"
	"nodevar/internal/faults"
	"nodevar/internal/methodology"
	"nodevar/internal/power"
	"nodevar/internal/rng"
)

// The simulated machine every scenario measures: a small cluster at
// constant utilization. Only the fault schedule varies.
const (
	scenarioNodes       = 16
	scenarioDurationSec = 600
	scenarioUtil        = 0.8
)

// Outcome is everything a scenario produced, deterministic in its
// schedule. Text is a fixed rendering for byte-for-byte replay checks.
type Outcome struct {
	// HealthyAvg is the fault-free whole-system average wall power.
	HealthyAvg power.Watts
	// DegradedAvg is the best-effort estimate after fault injection:
	// node outages retired from the aggregation, trace faults sanitized
	// and integrated gap-tolerantly.
	DegradedAvg power.Watts
	// Report accounts for every injected fault.
	Report *faults.Report
	// Quality is the node-aggregation quality under outages.
	Quality cluster.AggregateQuality
	// WindowQuality is the trace-level gap accounting of the damaged
	// measurement.
	WindowQuality power.WindowQuality
	// Assessment is the methodology accuracy statement, carrying the
	// degraded-confidence flag.
	Assessment methodology.Assessment
	// Completeness is the overall data completeness: the minimum across
	// the trace and node layers.
	Completeness float64
	// Degraded reports that the measurement lost or corrupted data.
	Degraded bool
}

// Text renders the outcome deterministically for replay comparison.
func (o *Outcome) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "healthy_avg_w=%.6f\n", float64(o.HealthyAvg))
	fmt.Fprintf(&b, "degraded_avg_w=%.6f\n", float64(o.DegradedAvg))
	fmt.Fprintf(&b, "completeness=%.6f degraded=%v nodes_lost=%d gaps=%d\n",
		o.Completeness, o.Degraded, o.Quality.NodesLost, o.WindowQuality.Gaps)
	fmt.Fprintf(&b, "assessment: %s\n", o.Assessment)
	b.WriteString(o.Report.String())
	return b.String()
}

// chaosModel is the fixed node preset every scenario simulates.
func chaosModel() cluster.NodeModel {
	return cluster.NodeModel{
		IdleWatts:        150,
		DynamicWatts:     250,
		ThermalTau:       120,
		TempRiseIdle:     10,
		TempRiseLoad:     45,
		LeakagePerDegree: 0.001,
		Fan:              cluster.NewAutoFan(15, 120, 30, 70),
		PSU:              cluster.PSUModel{RatedWatts: 800, PeakEff: 0.94, LowLoadEff: 0.8, Knee: 0.3},
	}
}

// constLoad is a constant-utilization workload.
type constLoad struct{ dur, util float64 }

func (l constLoad) CoreDuration() float64       { return l.dur }
func (l constLoad) Utilization(float64) float64 { return l.util }

// Run executes one scenario: simulate the machine, then inject sched
// into its measurement. Everything downstream of the cluster simulation
// exercises the degradation-tolerant pipeline; with a zero schedule
// every stage is a strict pass-through and the outcome's degraded
// estimate is bit-identical to the healthy one.
func Run(sched faults.Schedule) (*Outcome, error) {
	if err := sched.Validate(); err != nil {
		return nil, err
	}

	// Simulate the machine. The cluster seed derives from the schedule
	// seed so a single integer replays the scenario.
	c, err := cluster.New("chaos", scenarioNodes, chaosModel(),
		cluster.Variation{IdleCV: 0.01, DynamicCV: 0.025, FanCV: 0.05, OutlierFraction: 0.01},
		22, rng.New(sched.Seed^0x9e3779b97f4a7c15))
	if err != nil {
		return nil, err
	}
	res, err := cluster.Run(c, constLoad{dur: scenarioDurationSec, util: scenarioUtil}, cluster.RunOptions{SamplePeriod: 1})
	if err != nil {
		return nil, err
	}

	out := &Outcome{Completeness: 1}
	out.HealthyAvg, err = res.System.Average()
	if err != nil {
		return nil, err
	}

	// Layer 1: whole-node dropouts retire nodes from the aggregation.
	outages := sched.NodeOutages(scenarioNodes, res.Duration)
	clusterOut := make([]cluster.NodeOutage, len(outages))
	for i, o := range outages {
		clusterOut[i] = cluster.NodeOutage{Node: o.Node, At: o.At}
	}
	nodeAvg, quality, err := res.BestEffortAverage(clusterOut)
	if err != nil {
		return nil, err
	}
	out.Quality = quality

	// Layer 2: trace-level faults corrupt the aggregated measurement.
	tr, rep, err := sched.Apply(res.System)
	if err != nil {
		return nil, err
	}
	rep.NodesDropped = len(outages)
	out.Report = rep
	clean, _, err := tr.Sanitize()
	if err != nil {
		return nil, err
	}

	// Layer 3: gap-tolerant integration of whatever survived. maxGap of
	// 3 s flags any dropped-sample window (the simulation samples at
	// 1 Hz) without tripping on the healthy cadence.
	traceAvg, wq, err := clean.AverageBetweenTolerant(clean.Start(), clean.End(), 3)
	if err != nil {
		return nil, err
	}
	out.WindowQuality = wq

	// The degraded estimate: the trace-layer average corrected by the
	// node layer's extrapolation ratio. With no faults both ratios are
	// exactly 1 and traceAvg IS the healthy average (same trace pointer,
	// same fast path), keeping the no-fault path bit-identical.
	out.DegradedAvg = traceAvg
	if quality.NodesLost > 0 {
		out.DegradedAvg = power.Watts(float64(traceAvg) * float64(nodeAvg) / float64(out.HealthyAvg))
	}

	out.Completeness = math.Min(rep.Completeness, math.Min(quality.Completeness, wq.Completeness))
	out.Degraded = rep.Injected() || quality.NodesLost > 0 || wq.Gaps > 0
	out.Assessment = methodology.Assessment{
		Confidence:      0.95,
		TimeBiasBounded: true,
	}.WithCompleteness(out.Completeness)
	if out.Degraded && !out.Assessment.Degraded {
		// Faults landed without losing trace time (stuck sensors,
		// spikes, jitter): still not a clean measurement.
		out.Assessment.Degraded = true
		out.Assessment.DataCompleteness = out.Completeness
	}
	return out, nil
}
