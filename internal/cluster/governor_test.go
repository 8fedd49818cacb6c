package cluster

import (
	"math"
	"testing"

	"nodevar/internal/power"
)

// StaticGovernor always returns one operating point.
type StaticGovernor struct {
	Point Operating
}

// OperatingAt returns the fixed point.
func (g StaticGovernor) OperatingAt(float64) Operating { return g.Point }

func TestStaticGovernor(t *testing.T) {
	g := StaticGovernor{Point: Operating{FreqScale: 0.9, VoltScale: 0.95}}
	if g.OperatingAt(0) != g.OperatingAt(1e6) {
		t.Error("static governor varied")
	}
}

func TestNewStepGovernorValidation(t *testing.T) {
	ok := []Operating{Nominal, {FreqScale: 0.8, VoltScale: 0.9}}
	if _, err := NewStepGovernor([]float64{10}, ok); err != nil {
		t.Fatal(err)
	}
	if _, err := NewStepGovernor([]float64{10, 5}, append(ok, Nominal)); err == nil {
		t.Error("non-increasing times accepted")
	}
	if _, err := NewStepGovernor([]float64{10}, ok[:1]); err == nil {
		t.Error("mismatched lengths accepted")
	}
	if _, err := NewStepGovernor([]float64{10}, []Operating{Nominal, {FreqScale: -1, VoltScale: 1}}); err == nil {
		t.Error("invalid point accepted")
	}
}

func TestStepGovernorSchedule(t *testing.T) {
	low := Operating{FreqScale: 0.8, VoltScale: 0.9}
	mid := Operating{FreqScale: 0.9, VoltScale: 0.95}
	g, err := NewStepGovernor([]float64{100, 200}, []Operating{Nominal, mid, low})
	if err != nil {
		t.Fatal(err)
	}
	if g.OperatingAt(50) != Nominal {
		t.Error("before first switch")
	}
	if g.OperatingAt(150) != mid {
		t.Error("between switches")
	}
	if g.OperatingAt(100) != mid {
		t.Error("boundary belongs to the later segment")
	}
	if g.OperatingAt(1000) != low {
		t.Error("after last switch")
	}
}

func TestPowerSaveTailValidation(t *testing.T) {
	if _, err := PowerSaveTail(0, 0.5); err == nil {
		t.Error("zero duration accepted")
	}
	if _, err := PowerSaveTail(100, 0); err == nil {
		t.Error("zero tail start accepted")
	}
	if _, err := PowerSaveTail(100, 1); err == nil {
		t.Error("tail start 1 accepted")
	}
}

func TestGovernorCreatesValleyInClusterTrace(t *testing.T) {
	c := mustCluster(t, 20)
	load := constLoad{dur: 1000, util: 0.95}
	gov, err := PowerSaveTail(1000, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Run(c, load, RunOptions{SamplePeriod: 2})
	if err != nil {
		t.Fatal(err)
	}
	governed, err := Run(c, load, RunOptions{SamplePeriod: 2, Governor: gov})
	if err != nil {
		t.Fatal(err)
	}
	// Before the tail the traces match; inside it the governed run draws
	// visibly less.
	pEarlyA, _ := plain.System.AverageBetween(100, 500)
	pEarlyB, _ := governed.System.AverageBetween(100, 500)
	if math.Abs(float64(pEarlyA-pEarlyB))/float64(pEarlyA) > 0.001 {
		t.Errorf("governor changed pre-tail power: %v vs %v", pEarlyB, pEarlyA)
	}
	pLateA, _ := plain.System.AverageBetween(850, 1000)
	pLateB, _ := governed.System.AverageBetween(850, 1000)
	if float64(pLateB) > float64(pLateA)*0.95 {
		t.Errorf("governor tail not visible: %v vs %v", pLateB, pLateA)
	}
	// Segment report shows the valley.
	repA, _ := power.Segments(plain.System)
	repB, _ := power.Segments(governed.System)
	if repB.Last20 >= repA.Last20 {
		t.Errorf("governed last20 %v not below plain %v", repB.Last20, repA.Last20)
	}
}

func TestGovernorOverridesStaticOperating(t *testing.T) {
	c := mustCluster(t, 8)
	load := constLoad{dur: 200, util: 1}
	low := Operating{FreqScale: 0.8, VoltScale: 0.9}
	static, err := Run(c, load, RunOptions{Operating: low, SamplePeriod: 5})
	if err != nil {
		t.Fatal(err)
	}
	governed, err := Run(c, load, RunOptions{
		Operating:    Nominal,
		Governor:     StaticGovernor{Point: low},
		SamplePeriod: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := static.System.Average()
	b, _ := governed.System.Average()
	if math.Abs(float64(a-b))/float64(a) > 1e-9 {
		t.Errorf("governor path differs from static: %v vs %v", b, a)
	}
}

func TestGovernorWorksPerNode(t *testing.T) {
	c := mustCluster(t, 10)
	scales := make([]float64, 10)
	for i := range scales {
		scales[i] = 1
	}
	load := scaledLoad{dur: 400, base: 1, scales: scales}
	gov, err := PowerSaveTail(400, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := RunPerNode(c, load, RunOptions{SamplePeriod: 2})
	if err != nil {
		t.Fatal(err)
	}
	governed, err := RunPerNode(c, load, RunOptions{SamplePeriod: 2, Governor: gov})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := plain.System.Average()
	b, _ := governed.System.Average()
	if b >= a {
		t.Errorf("per-node governed average %v not below plain %v", b, a)
	}
}
