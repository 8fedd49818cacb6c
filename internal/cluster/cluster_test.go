package cluster

import (
	"math"
	"testing"
	"testing/quick"

	"nodevar/internal/power"
	"nodevar/internal/rng"
	"nodevar/internal/stats"
)

func testModel() NodeModel {
	return NodeModel{
		IdleWatts:        150,
		DynamicWatts:     250,
		ThermalTau:       120,
		TempRiseIdle:     10,
		TempRiseLoad:     45,
		LeakagePerDegree: 0.001,
		Fan:              NewAutoFan(15, 120, 30, 70),
		PSU:              PSUModel{RatedWatts: 800, PeakEff: 0.94, LowLoadEff: 0.8, Knee: 0.3},
	}
}

func testVariation() Variation {
	return Variation{IdleCV: 0.01, DynamicCV: 0.025, FanCV: 0.05, OutlierFraction: 0.01}
}

// constLoad is a constant-utilization workload.
type constLoad struct {
	dur  float64
	util float64
}

func (l constLoad) CoreDuration() float64       { return l.dur }
func (l constLoad) Utilization(float64) float64 { return l.util }

func mustCluster(t *testing.T, n int) *Cluster {
	t.Helper()
	c, err := New("test", n, testModel(), testVariation(), 22, rng.New(42))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestFanModel(t *testing.T) {
	f := NewAutoFan(10, 110, 30, 70)
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := f.Speed(20); got != 0 {
		t.Errorf("speed below band = %v", got)
	}
	if got := f.Speed(90); got != 1 {
		t.Errorf("speed above band = %v", got)
	}
	if got := f.Speed(50); got != 0.5 {
		t.Errorf("speed mid-band = %v", got)
	}
	if got := f.Power(20); got != 10 {
		t.Errorf("min fan power = %v", got)
	}
	if got := f.Power(90); got != 110 {
		t.Errorf("max fan power = %v", got)
	}
	// Cubic law at half speed: 10 + 100*0.125 = 22.5.
	if got := f.Power(50); math.Abs(float64(got)-22.5) > 1e-12 {
		t.Errorf("half-speed fan power = %v", got)
	}
	fixed := NewFixedFan(10, 110, 0.2)
	if got := fixed.Speed(95); got != 0.2 {
		t.Errorf("fixed fan speed = %v", got)
	}
}

func TestFanValidate(t *testing.T) {
	if err := (FanModel{BaseWatts: -1, MaxWatts: 5, FixedSpeed: 0.5}).Validate(); err == nil {
		t.Error("negative base accepted")
	}
	if err := (FanModel{BaseWatts: 10, MaxWatts: 5, FixedSpeed: 0.5}).Validate(); err == nil {
		t.Error("max < base accepted")
	}
	if err := NewFixedFan(1, 2, 1.5).Validate(); err == nil {
		t.Error("speed > 1 accepted")
	}
	if err := NewAutoFan(1, 2, 70, 30).Validate(); err == nil {
		t.Error("inverted control band accepted")
	}
}

func TestPSUModel(t *testing.T) {
	p := PSUModel{RatedWatts: 1000, PeakEff: 0.94, LowLoadEff: 0.8, Knee: 0.4}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := p.Efficiency(500); got != 0.94 {
		t.Errorf("efficiency above knee = %v", got)
	}
	if got := p.Efficiency(0); got != 0.8 {
		t.Errorf("efficiency at zero load = %v", got)
	}
	if got := p.Efficiency(200); math.Abs(got-0.87) > 1e-12 { // midway to knee
		t.Errorf("efficiency at half-knee = %v", got)
	}
	if got := p.WallPower(470); math.Abs(float64(got)-500) > 1e-9 {
		t.Errorf("wall power = %v", got)
	}
}

func TestOperating(t *testing.T) {
	if Nominal.DynamicFactor() != 1 {
		t.Error("nominal dynamic factor != 1")
	}
	o := Operating{FreqScale: 0.86, VoltScale: 0.9}
	if got := o.DynamicFactor(); math.Abs(got-0.86*0.81) > 1e-12 {
		t.Errorf("dynamic factor = %v", got)
	}
	if err := (Operating{FreqScale: 0, VoltScale: 1}).Validate(); err == nil {
		t.Error("zero freq accepted")
	}
}

func TestNodeModelValidate(t *testing.T) {
	good := testModel()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*NodeModel){
		func(m *NodeModel) { m.DynamicWatts = 0 },
		func(m *NodeModel) { m.ThermalTau = 0 },
		func(m *NodeModel) { m.TempRiseLoad = 5 }, // below idle rise
		func(m *NodeModel) { m.LeakagePerDegree = -1 },
		func(m *NodeModel) { m.Fan.MaxWatts = -5 },
		func(m *NodeModel) { m.PSU.RatedWatts = 0 },
	}
	for i, mutate := range bad {
		m := testModel()
		mutate(&m)
		if err := m.Validate(); err == nil {
			t.Errorf("bad model %d accepted", i)
		}
	}
}

func TestNewClusterErrors(t *testing.T) {
	if _, err := New("x", 0, testModel(), testVariation(), 22, rng.New(1)); err == nil {
		t.Error("zero nodes accepted")
	}
	v := testVariation()
	v.DynamicCV = -1
	if _, err := New("x", 10, testModel(), v, 22, rng.New(1)); err == nil {
		t.Error("negative CV accepted")
	}
}

func TestClusterNodeVariationMoments(t *testing.T) {
	c := mustCluster(t, 5000)
	load := constLoad{dur: 300, util: 1}
	res, err := Run(c, load, RunOptions{SamplePeriod: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.NodeAverages) != 5000 {
		t.Fatalf("node averages length %d", len(res.NodeAverages))
	}
	sum := stats.Summarize(res.NodeAverages)
	// σ/μ should land in the paper's observed 1-3.5% band for these CVs.
	if sum.CV < 0.008 || sum.CV > 0.04 {
		t.Errorf("node power CV = %v, outside plausible band", sum.CV)
	}
	// Node average power should exceed idle and be below rated PSU power.
	if sum.Min < 150 || sum.Max > 800 {
		t.Errorf("node power range [%v, %v] implausible", sum.Min, sum.Max)
	}
}

func TestRunSystemTraceConsistentWithNodeSum(t *testing.T) {
	c := mustCluster(t, 40)
	load := constLoad{dur: 100, util: 0.8}
	res, err := Run(c, load, RunOptions{SamplePeriod: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Sum of individual node traces should approximate the system trace
	// (up to the PSU mean-load approximation, well under 1%).
	var nodeSum float64
	for i := 0; i < c.N(); i++ {
		avg, err := res.NodeTrace(i).Average()
		if err != nil {
			t.Fatal(err)
		}
		nodeSum += float64(avg)
	}
	sysAvg, err := res.System.Average()
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(nodeSum-float64(sysAvg)) / float64(sysAvg); rel > 0.01 {
		t.Errorf("node sum %v vs system %v (rel %v)", nodeSum, sysAvg, rel)
	}
}

func TestWarmupRamp(t *testing.T) {
	c := mustCluster(t, 10)
	load := constLoad{dur: 1200, util: 1}
	res, err := Run(c, load, RunOptions{SamplePeriod: 1, ColdStart: true})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := power.Segments(res.System)
	if err != nil {
		t.Fatal(err)
	}
	// With a cold start, warm-up makes the first 20% cheaper than the
	// last 20% (leakage and fans rise with temperature).
	if rep.First20 >= rep.Last20 {
		t.Errorf("no warm-up ramp: first %v last %v", rep.First20, rep.Last20)
	}
}

func TestDVFSReducesPower(t *testing.T) {
	c := mustCluster(t, 10)
	load := constLoad{dur: 600, util: 1}
	nominal, err := Run(c, load, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tuned, err := Run(c, load, RunOptions{
		Operating: Operating{FreqScale: 0.86, VoltScale: 0.88},
	})
	if err != nil {
		t.Fatal(err)
	}
	a1, _ := nominal.System.Average()
	a2, _ := tuned.System.Average()
	if a2 >= a1 {
		t.Errorf("DVFS did not reduce power: %v vs %v", a2, a1)
	}
}

func TestFixedFansReduceNodeVariability(t *testing.T) {
	// The paper's Section 5 mitigation: pinning fans shrinks σ/μ.
	mAuto := testModel()
	mFixed := testModel()
	mFixed.Fan = NewFixedFan(15, 120, 0.3)
	vAuto := Variation{DynamicCV: 0.01, FanCV: 0.2}
	load := constLoad{dur: 300, util: 1}

	cAuto, err := New("auto", 2000, mAuto, vAuto, 22, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	cFixed, err := New("fixed", 2000, mFixed, vAuto, 22, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	resAuto, err := Run(cAuto, load, RunOptions{SamplePeriod: 5})
	if err != nil {
		t.Fatal(err)
	}
	resFixed, err := Run(cFixed, load, RunOptions{SamplePeriod: 5})
	if err != nil {
		t.Fatal(err)
	}
	cvAuto := stats.CoefficientOfVariation(resAuto.NodeAverages)
	cvFixed := stats.CoefficientOfVariation(resFixed.NodeAverages)
	if cvFixed >= cvAuto {
		t.Errorf("pinned fans did not reduce CV: %v vs %v", cvFixed, cvAuto)
	}
}

func TestRunLongDurationCapsSamples(t *testing.T) {
	c := mustCluster(t, 5)
	load := constLoad{dur: 100000, util: 0.9} // ~28 h
	res, err := Run(c, load, RunOptions{SamplePeriod: 1, MaxSamples: 5000})
	if err != nil {
		t.Fatal(err)
	}
	if res.System.Len() > 5001 {
		t.Errorf("sample cap exceeded: %d", res.System.Len())
	}
	if res.System.End() != 100000 {
		t.Errorf("trace end = %v", res.System.End())
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	c := mustCluster(t, 5)
	if _, err := Run(c, constLoad{dur: 0, util: 1}, RunOptions{}); err == nil {
		t.Error("zero-duration workload accepted")
	}
	if _, err := Run(c, constLoad{dur: 10, util: 1}, RunOptions{SamplePeriod: -1}); err == nil {
		t.Error("negative sample period accepted")
	}
	// The tick loop would never end on these.
	if _, err := Run(c, constLoad{dur: math.Inf(1), util: 1}, RunOptions{}); err == nil {
		t.Error("infinite-duration workload accepted")
	}
	if _, err := Run(c, constLoad{dur: 10, util: 1}, RunOptions{SamplePeriod: math.NaN()}); err == nil {
		t.Error("NaN sample period accepted")
	}
	if _, err := Run(c, constLoad{dur: 10, util: 1}, RunOptions{MaxSamples: 2}); err == nil {
		t.Error("tiny MaxSamples accepted")
	}
	if _, err := Run(c, constLoad{dur: 10, util: 1}, RunOptions{Operating: Operating{FreqScale: -1, VoltScale: 1}}); err == nil {
		t.Error("invalid operating point accepted")
	}
}

func TestNodeTracePanicsOutOfRange(t *testing.T) {
	c := mustCluster(t, 3)
	res, err := Run(c, constLoad{dur: 10, util: 1}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	res.NodeTrace(3)
}

func TestClusterDeterministicBySeed(t *testing.T) {
	build := func() []float64 {
		c, err := New("d", 100, testModel(), testVariation(), 22, rng.New(99))
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(c, constLoad{dur: 60, util: 1}, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return res.NodeAverages
	}
	a, b := build(), build()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("node %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

// Property: higher utilization never lowers steady-state system power.
func TestQuickPowerMonotoneInUtil(t *testing.T) {
	c := mustCluster(t, 20)
	f := func(aRaw, bRaw uint8) bool {
		ua := float64(aRaw) / 255
		ub := float64(bRaw) / 255
		if ua > ub {
			ua, ub = ub, ua
		}
		ra, err1 := Run(c, constLoad{dur: 600, util: ua}, RunOptions{SamplePeriod: 10})
		rb, err2 := Run(c, constLoad{dur: 600, util: ub}, RunOptions{SamplePeriod: 10})
		if err1 != nil || err2 != nil {
			return false
		}
		pa, _ := ra.System.Average()
		pb, _ := rb.System.Average()
		return pa <= pb+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func BenchmarkRun1000Nodes(b *testing.B) {
	c, err := New("bench", 1000, testModel(), testVariation(), 22, rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	load := constLoad{dur: 3600, util: 0.95}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(c, load, RunOptions{SamplePeriod: 1}); err != nil {
			b.Fatal(err)
		}
	}
}
