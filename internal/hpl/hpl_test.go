package hpl

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"nodevar/internal/power"
)

func baseConfig() Config {
	return Config{
		MatrixOrder:    20000,
		BlockSize:      200,
		Nodes:          100,
		NodePeak:       500,
		PeakEfficiency: 0.8,
		TailKnee:       0.01,
		PanelFraction:  0.2,
	}
}

// TestValidate refuses each bad field, NaN and both infinities included,
// with an error that names the field.
func TestValidate(t *testing.T) {
	good := baseConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	type badCase struct {
		field  string
		mutate func(*Config)
	}
	bad := []badCase{
		{"MatrixOrder", func(c *Config) { c.MatrixOrder = 0 }},
		{"BlockSize", func(c *Config) { c.BlockSize = 0 }},
		{"BlockSize", func(c *Config) { c.BlockSize = c.MatrixOrder + 1 }},
		{"Nodes", func(c *Config) { c.Nodes = 0 }},
		{"NodePeak", func(c *Config) { c.NodePeak = 0 }},
		{"PeakEfficiency", func(c *Config) { c.PeakEfficiency = 0 }},
		{"PeakEfficiency", func(c *Config) { c.PeakEfficiency = 1.2 }},
		{"TailKnee", func(c *Config) { c.TailKnee = -1 }},
		{"PanelFraction", func(c *Config) { c.PanelFraction = 0 }},
		{"PanelFraction", func(c *Config) { c.PanelFraction = 1.5 }},
		{"SetupTime", func(c *Config) { c.SetupTime = -1 }},
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		bad = append(bad, []badCase{
			{"NodePeak", func(c *Config) { c.NodePeak = power.GFlops(v) }},
			{"PeakEfficiency", func(c *Config) { c.PeakEfficiency = v }},
			{"TailKnee", func(c *Config) { c.TailKnee = v }},
			{"PanelFraction", func(c *Config) { c.PanelFraction = v }},
			{"StepOverhead", func(c *Config) { c.StepOverhead = v }},
			{"SetupTime", func(c *Config) { c.SetupTime = v }},
			{"TeardownTime", func(c *Config) { c.TeardownTime = v }},
		}...)
	}
	for i, b := range bad {
		c := baseConfig()
		b.mutate(&c)
		if err := c.Validate(); err == nil || !strings.Contains(err.Error(), b.field) {
			t.Errorf("bad config %d: Validate() = %v, want an error naming %s", i, err, b.field)
		}
	}
}

// TestNaNTemplateFailsOnFirstProbe: a template with a NaN field used to
// validate, so every core duration was NaN and the runtime search probed
// up to its 1<<28 limit before calling the target unreachably long. Now
// the first probe returns the field's error.
func TestNaNTemplateFailsOnFirstProbe(t *testing.T) {
	c := baseConfig()
	c.TailKnee = math.NaN()
	c.BlockSize = 1 << 18
	probes := 0
	_, err := searchOrder(c.BlockSize, 3600, func(n int) (float64, error) {
		probes++
		return c.durationAt(n)
	})
	if err == nil || !strings.Contains(err.Error(), "TailKnee") || probes > 1 {
		t.Errorf("search = %v after %d probes, want the TailKnee error after at most 1", err, probes)
	}
	if _, err := MatrixOrderForRuntime(c, 3600); err == nil || !strings.Contains(err.Error(), "TailKnee") {
		t.Errorf("MatrixOrderForRuntime = %v, want the TailKnee error", err)
	}
}

func TestSimulateStepStructure(t *testing.T) {
	run, err := Simulate(baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Steps) != 100 { // 20000/200
		t.Fatalf("steps = %d", len(run.Steps))
	}
	// Steps are contiguous in time and trailing matrix shrinks by NB.
	for i, s := range run.Steps {
		if s.Trailing != 20000-i*200 {
			t.Fatalf("step %d trailing = %d", i, s.Trailing)
		}
		if i > 0 {
			prev := run.Steps[i-1]
			if math.Abs(s.Start-(prev.Start+prev.Duration)) > 1e-9 {
				t.Fatalf("step %d not contiguous", i)
			}
		}
		if s.Duration <= 0 || s.Utilization <= 0 || s.Utilization > 1 {
			t.Fatalf("step %d invalid: %+v", i, s)
		}
	}
	last := run.Steps[len(run.Steps)-1]
	if got := last.Start + last.Duration; math.Abs(got-run.CoreDuration) > 1e-9 {
		t.Errorf("CoreDuration %v != end of last step %v", run.CoreDuration, got)
	}
}

func TestFlopCountNearTheory(t *testing.T) {
	run, err := Simulate(baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	var stepFlops float64
	for _, s := range run.Steps {
		stepFlops += s.Flops
	}
	// Sum of 2*NB*m² over steps approximates 2/3 N³ within a few percent
	// for NB << N.
	if rel := math.Abs(stepFlops-run.TotalFlops) / run.TotalFlops; rel > 0.05 {
		t.Errorf("step flops off theory by %.2f%%", rel*100)
	}
}

func TestRmaxBelowPeakAboveHalfEff(t *testing.T) {
	c := baseConfig()
	run, err := Simulate(c)
	if err != nil {
		t.Fatal(err)
	}
	machinePeak := float64(c.NodePeak) * float64(c.Nodes)
	if float64(run.Rmax) >= machinePeak*c.PeakEfficiency {
		t.Errorf("Rmax %v >= efficiency-limited peak %v", run.Rmax, machinePeak*c.PeakEfficiency)
	}
	if float64(run.Rmax) < machinePeak*c.PeakEfficiency*0.5 {
		t.Errorf("Rmax %v implausibly low", run.Rmax)
	}
}

func TestUtilizationMonotoneDecline(t *testing.T) {
	run, err := Simulate(baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(run.Steps); i++ {
		if run.Steps[i].Utilization > run.Steps[i-1].Utilization {
			t.Fatalf("utilization increased at step %d", i)
		}
	}
	// First step is near 1 (m = N), last step near the knee floor.
	if run.Steps[0].Utilization < 0.95 {
		t.Errorf("first-step utilization = %v", run.Steps[0].Utilization)
	}
	if last := run.Steps[len(run.Steps)-1].Utilization; last > 0.5 {
		t.Errorf("last-step utilization = %v, expected a pronounced tail", last)
	}
}

func TestUtilizationAt(t *testing.T) {
	run, err := Simulate(baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got := run.UtilizationAt(-1); got != 0 {
		t.Errorf("utilization before run = %v", got)
	}
	if got := run.UtilizationAt(run.CoreDuration + 1); got != 0 {
		t.Errorf("utilization after run = %v", got)
	}
	if got := run.UtilizationAt(0); got != run.Steps[0].Utilization {
		t.Errorf("utilization at 0 = %v", got)
	}
	// Mid-step lookup returns that step's utilization.
	s := run.Steps[10]
	if got := run.UtilizationAt(s.Start + s.Duration/2); got != s.Utilization {
		t.Errorf("mid-step utilization = %v, want %v", got, s.Utilization)
	}
}

func TestSegmentUtilizationTailShape(t *testing.T) {
	// GPU-like config: heavy tail means first 20% >> last 20%.
	c := baseConfig()
	c.TailKnee = 0.05
	c.PanelFraction = 0.02
	run, err := Simulate(c)
	if err != nil {
		t.Fatal(err)
	}
	first := run.SegmentUtilization(0, 0.2)
	last := run.SegmentUtilization(0.8, 1)
	if first <= last {
		t.Fatalf("first20 %v <= last20 %v", first, last)
	}
	if (first-last)/run.MeanUtilization() < 0.15 {
		t.Errorf("GPU-like tail too shallow: first %v last %v", first, last)
	}
	// CPU-like config: nearly flat.
	c.TailKnee = 0.0005
	c.PanelFraction = 0.25
	run, err = Simulate(c)
	if err != nil {
		t.Fatal(err)
	}
	first = run.SegmentUtilization(0, 0.2)
	last = run.SegmentUtilization(0.8, 1)
	if (first-last)/run.MeanUtilization() > 0.05 {
		t.Errorf("CPU-like profile too steep: first %v last %v", first, last)
	}
}

func TestSegmentUtilizationConsistentWithMean(t *testing.T) {
	run, err := Simulate(baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Weighted recombination of thirds equals the overall mean.
	a := run.SegmentUtilization(0, 1.0/3)
	b := run.SegmentUtilization(1.0/3, 2.0/3)
	c := run.SegmentUtilization(2.0/3, 1)
	if got, want := (a+b+c)/3, run.MeanUtilization(); math.Abs(got-want) > 1e-9 {
		t.Errorf("segment recombination %v != mean %v", got, want)
	}
}

func TestMatrixOrderForRuntime(t *testing.T) {
	template := baseConfig()
	for _, target := range []float64{600, 5400, 25200} {
		n, err := MatrixOrderForRuntime(template, target)
		if err != nil {
			t.Fatal(err)
		}
		c := template
		c.MatrixOrder = n
		run, err := Simulate(c)
		if err != nil {
			t.Fatal(err)
		}
		if rel := math.Abs(run.CoreDuration-target) / target; rel > 0.02 {
			t.Errorf("target %v: got runtime %v (N=%d), off by %.2f%%",
				target, run.CoreDuration, n, rel*100)
		}
	}
}

func TestMatrixOrderForRuntimeBadTarget(t *testing.T) {
	for _, target := range []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := MatrixOrderForRuntime(baseConfig(), target); err == nil || !strings.Contains(err.Error(), "target runtime") {
			t.Errorf("target %v: err = %v, want a target runtime error", target, err)
		}
	}
}

// Property: longer target runtimes need larger matrices. The runtime
// search's exactness rests on it: core duration strictly increases from
// every order to the next, including across the block-size multiples
// where a new panel step starts (and, with StepOverhead, the duration
// jumps).
func TestQuickRuntimeMonotoneInN(t *testing.T) {
	gpu := Config{ // shaped like the rules testbed
		BlockSize: 768, Nodes: 128, NodePeak: 5000, PeakEfficiency: 0.65,
		TailKnee: 0.04, PanelFraction: 0.02, StepOverhead: 2,
	}
	for _, template := range []Config{baseConfig(), gpu} {
		nb := template.BlockSize
		adjacent := func(stepsRaw uint16, offRaw uint8) bool {
			// n and n+1 at and around the end of a panel step count.
			n := (2+int(stepsRaw)%4000)*nb + int(offRaw)%5 - 2
			lo, hi := template, template
			lo.MatrixOrder, hi.MatrixOrder = n, n+1
			dLo, err1 := lo.coreDuration()
			dHi, err2 := hi.coreDuration()
			return err1 == nil && err2 == nil && dLo < dHi
		}
		if err := quick.Check(adjacent, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("NB=%d: %v", nb, err)
		}
	}

	template := baseConfig()
	f := func(aRaw, bRaw uint16) bool {
		na := 2000 + int(aRaw)%30000
		nb := 2000 + int(bRaw)%30000
		if na > nb {
			na, nb = nb, na
		}
		if na == nb {
			return true
		}
		ca, cb := template, template
		ca.MatrixOrder, cb.MatrixOrder = na, nb
		ra, err1 := Simulate(ca)
		rb, err2 := Simulate(cb)
		if err1 != nil || err2 != nil {
			return false
		}
		return ra.CoreDuration < rb.CoreDuration
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestSearchWorkOnPresetShapes pins how few panel steps the runtime
// search walks to size the five calibrated presets (templates copied from
// internal/systems, which imports this package). The doubling-plus-
// bisection search it replaced walked the listed counts, 1,886,552 in
// all; the model-guided search must walk no more on any preset and at
// most 450,000 in all.
func TestSearchWorkOnPresetShapes(t *testing.T) {
	presets := []struct {
		name        string
		c           Config
		target      float64
		parentSteps int
	}{
		{"Colosse", Config{BlockSize: 128, Nodes: 960, NodePeak: 90, PeakEfficiency: 0.85, TailKnee: 0.0015, PanelFraction: 0.25}, 7 * 3600, 260959},
		{"Sequoia", Config{BlockSize: 256, Nodes: 122880, NodePeak: 204.8, PeakEfficiency: 0.82, TailKnee: 0.04, PanelFraction: 0.2}, 28 * 3600, 1442741},
		{"Piz Daint", Config{BlockSize: 512, Nodes: 5272, NodePeak: 1400, PeakEfficiency: 0.7, TailKnee: 0.03, PanelFraction: 0.03, StepOverhead: 0.5}, 1.5 * 3600, 133191},
		{"L-CSC", Config{BlockSize: 1024, Nodes: 160, NodePeak: 10200, PeakEfficiency: 0.62, TailKnee: 0.045, PanelFraction: 0.02, StepOverhead: 3}, 1.5 * 3600, 30630},
		{"TSUBAME-KFC", Config{BlockSize: 768, Nodes: 40, NodePeak: 5600, PeakEfficiency: 0.65, TailKnee: 0.035, PanelFraction: 0.025, StepOverhead: 2}, 3600, 19031},
	}
	total := 0
	for _, p := range presets {
		probes, steps := 0, 0
		n, err := searchOrder(p.c.BlockSize, p.target, func(n int) (float64, error) {
			probes++
			steps += (n + p.c.BlockSize - 1) / p.c.BlockSize
			return p.c.durationAt(n)
		})
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		total += steps
		t.Logf("%-11s N=%d: %d probes, %d panel steps (was %d)", p.name, n, probes, steps, p.parentSteps)
		if steps > p.parentSteps {
			t.Errorf("%s: %d panel steps, more than the %d the bisection walked", p.name, steps, p.parentSteps)
		}
	}
	if total > 450000 {
		t.Errorf("sizing the presets walked %d panel steps, want at most 450000", total)
	}
}

func BenchmarkSimulate(b *testing.B) {
	c := baseConfig()
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(c); err != nil {
			b.Fatal(err)
		}
	}
}

// TestCoreDurationMatchesSimulate pins the runtime search's duration-only
// loop to Simulate: over a table of shapes, including invalid ones,
// coreDuration returns Simulate(c).CoreDuration bit for bit, or the same
// error.
func TestCoreDurationMatchesSimulate(t *testing.T) {
	base := baseConfig()
	var table []Config
	for _, n := range []int{1, 7, 199, 200, 201, 20000, 123457} {
		for _, nb := range []int{1, 64, 200, 768} {
			for _, knee := range []float64{0, 0.002, 0.05} {
				c := base
				c.MatrixOrder, c.BlockSize, c.TailKnee = n, nb, knee
				c.PanelFraction = 0.02 + 0.2*knee
				c.StepOverhead = 40 * knee
				table = append(table, c)
			}
		}
	}
	bad := base
	bad.PeakEfficiency = 0
	table = append(table, bad)
	for _, c := range table {
		got, gotErr := c.coreDuration()
		run, wantErr := Simulate(c)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("N=%d NB=%d: error %v, want %v", c.MatrixOrder, c.BlockSize, gotErr, wantErr)
		}
		if wantErr != nil {
			continue
		}
		if math.Float64bits(got) != math.Float64bits(run.CoreDuration) {
			t.Fatalf("N=%d NB=%d knee=%v: coreDuration %v, Simulate %v",
				c.MatrixOrder, c.BlockSize, c.TailKnee, got, run.CoreDuration)
		}
	}
}
