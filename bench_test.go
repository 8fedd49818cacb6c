package nodevar

// The benchmark harness: one Benchmark per table and figure of the paper
// (each run regenerates the artifact and reports the key reproduced
// numbers once via b.Log), plus micro-benchmarks of the hot paths.
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// Absolute wall times depend on the host; what matters for the
// reproduction is the printed paper-vs-measured values, which are also
// collected in EXPERIMENTS.md.

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"testing"

	"nodevar/internal/core"
	"nodevar/internal/methodology"
	"nodevar/internal/power"
	"nodevar/internal/sampling"
	"nodevar/internal/systems"
)

// benchOptions trades a little fidelity for wall time; cmd/repro restores
// full scale.
func benchOptions() core.Options {
	return core.Options{
		Seed:              2015,
		TraceSamples:      1500,
		Replicates:        8000,
		MeasurementTrials: 60,
	}
}

var logOnce sync.Map

// runArtifact executes one experiment per benchmark iteration and logs
// its headline table on the first run of the process.
func runArtifact(b *testing.B, id core.ID) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		res, err := core.Run(id, benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		if _, logged := logOnce.LoadOrStore(id, true); !logged {
			var sb strings.Builder
			if err := res.Tables()[0].WriteText(&sb); err != nil {
				b.Fatal(err)
			}
			b.Logf("\n%s", sb.String())
		}
	}
}

func BenchmarkTable1(b *testing.B)  { runArtifact(b, core.Table1) }
func BenchmarkTable2(b *testing.B)  { runArtifact(b, core.Table2) }
func BenchmarkTable3(b *testing.B)  { runArtifact(b, core.Table3) }
func BenchmarkTable4(b *testing.B)  { runArtifact(b, core.Table4) }
func BenchmarkTable5(b *testing.B)  { runArtifact(b, core.Table5) }
func BenchmarkFigure1(b *testing.B) { runArtifact(b, core.Figure1) }
func BenchmarkFigure2(b *testing.B) { runArtifact(b, core.Figure2) }
func BenchmarkFigure3(b *testing.B) { runArtifact(b, core.Figure3) }
func BenchmarkFigure4(b *testing.B) { runArtifact(b, core.Figure4) }
func BenchmarkGaming(b *testing.B)  { runArtifact(b, core.Gaming) }
func BenchmarkRules(b *testing.B)   { runArtifact(b, core.Rules) }

// BenchmarkRenderAll measures the full reproduction pipeline end to end.
func BenchmarkRenderAll(b *testing.B) {
	opts := benchOptions()
	opts.Replicates = 2000
	opts.MeasurementTrials = 20
	for i := 0; i < b.N; i++ {
		results, err := core.RunAll(opts)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range results {
			if err := r.Render(io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// --- micro-benchmarks of the hot paths ---

// BenchmarkSampleSizePlanning measures Equation 5 end to end.
func BenchmarkSampleSizePlanning(b *testing.B) {
	plan := sampling.Plan{Confidence: 0.95, Accuracy: 0.01, CV: 0.025, Population: 18688}
	for i := 0; i < b.N; i++ {
		if _, err := plan.RequiredSampleSize(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBootstrapReplicates measures Figure 3 throughput in
// replicates/op (each op = 1000 replicates on the 516-node LRZ pilot).
func BenchmarkBootstrapReplicates(b *testing.B) {
	pilot, err := systems.PilotSample(systems.LRZ, 1, 516)
	if err != nil {
		b.Fatal(err)
	}
	cfg := sampling.CoverageConfig{
		Pilot:       pilot,
		Population:  systems.LRZ.TotalNodes,
		SampleSizes: []int{10},
		Levels:      []float64{0.95},
		Replicates:  1000,
		Seed:        1,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sampling.CoverageStudy(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTraceCalibration measures fitting one system to its Table 2
// targets. It deliberately bypasses the calibration cache: the point is
// the cost of one full Nelder-Mead fit.
func BenchmarkTraceCalibration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := systems.CalibratedTraceUncached(systems.LCSC, 1000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkColdCalibration measures calibrating, from an empty cache,
// every preset whose trace the pipeline fits (Table 2 and the gaming
// study) at the pipeline's 2000 samples: the work a fresh process does
// before its first repro pass.
func BenchmarkColdCalibration(b *testing.B) {
	presets := []systems.Spec{systems.Colosse, systems.Sequoia, systems.PizDaint, systems.LCSC, systems.TsubameKFC}
	for i := 0; i < b.N; i++ {
		systems.ResetCalibrationCache()
		for _, s := range presets {
			if _, _, err := systems.CalibratedTrace(s, 2000); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkCalibrationCached measures the memoized path most callers hit.
func BenchmarkCalibrationCached(b *testing.B) {
	if _, _, err := systems.CalibratedTrace(systems.LCSC, 1000); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := systems.CalibratedTrace(systems.LCSC, 1000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWindowAverage compares a windowed average-power query served
// by the prefix-sum energy index against the naive trapezoid scan it
// replaced, on a 100k-sample trace.
func BenchmarkWindowAverage(b *testing.B) {
	const n = 100000
	samples := make([]power.Sample, n)
	for i := range samples {
		t := float64(i)
		samples[i] = power.Sample{Time: t, Power: power.Watts(200 + 50*math.Sin(t/300))}
	}
	tr, err := power.NewTrace(samples)
	if err != nil {
		b.Fatal(err)
	}
	const window = 1000.0
	b.Run("indexed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			a := float64(i % (n / 2))
			if _, err := tr.AverageBetween(a, a+window); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("naive", func(b *testing.B) {
		s := tr.Samples()
		for i := 0; i < b.N; i++ {
			a := float64(i % (n / 2))
			hi := a + window
			var total float64
			prevT, prevP := a, float64(tr.At(a))
			j := sort.Search(len(s), func(k int) bool { return s[k].Time > a })
			for ; j < len(s) && s[j].Time < hi; j++ {
				total += (float64(s[j].Power) + prevP) / 2 * (s[j].Time - prevT)
				prevT, prevP = s[j].Time, float64(s[j].Power)
			}
			total += (float64(tr.At(hi)) + prevP) / 2 * (hi - prevT)
			if avg := total / window; avg <= 0 {
				b.Fatal("non-positive average")
			}
		}
	})
}

// BenchmarkRunAllParallel compares the parallel experiment pipeline with
// the sequential reference it is byte-identical to. Both sub-benchmarks
// share the warm calibration cache, so the delta isolates scheduling.
func BenchmarkRunAllParallel(b *testing.B) {
	opts := benchOptions()
	opts.Replicates = 2000
	opts.MeasurementTrials = 20
	b.Run("parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.RunAll(opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.RunAllSequential(opts); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkLevel1Measurement measures one subset measurement on a
// simulated 128-node machine.
func BenchmarkLevel1Measurement(b *testing.B) {
	m, err := SimulateMachine(MachineConfig{Nodes: 128, GPUStyle: true, RuntimeSeconds: 1800, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	spec := methodology.MustLevelSpec(methodology.Level1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Measure(m.Target, spec, MeasureOptions{Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMachineSimulation measures a full cluster power simulation.
func BenchmarkMachineSimulation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := SimulateMachine(MachineConfig{Nodes: 256, RuntimeSeconds: 900, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGamingSearch measures the best-window search on a realistic
// trace.
func BenchmarkGamingSearch(b *testing.B) {
	tr, _, err := systems.CalibratedTrace(systems.PizDaint, 2000)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := methodology.AnalyzeGaming("pizdaint", tr); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVIDStudy measures the Figure 4 generator.
func BenchmarkVIDStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := systems.RunVIDStudy(systems.VIDStudyConfig{Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// Example-style smoke check used by `go test`: the full render pipeline
// emits the paper's flagship numbers.
func TestBenchHarnessArtifacts(t *testing.T) {
	opts := benchOptions()
	opts.Replicates = 1500
	opts.MeasurementTrials = 15
	var sb strings.Builder
	for _, id := range core.IDs() {
		res, err := core.Run(id, opts)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if err := res.Render(&sb); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintln(&sb)
	}
	out := sb.String()
	for _, flagship := range []string{
		"398.7", "11503.3", "59.1", // Table 2 kW values
		"581.93", "90.74", // Table 4 moments
		"370", "16", // Table 5 cells
		"774 MHz", // Figure 4
	} {
		if !strings.Contains(out, flagship) {
			t.Errorf("full render missing flagship value %q", flagship)
		}
	}
}

// BenchmarkAblation regenerates the ablation study.
func BenchmarkAblation(b *testing.B) { runArtifact(b, core.Ablation) }

// BenchmarkRankStability measures leaderboard-fragility simulation
// throughput.
func BenchmarkRankStability(b *testing.B) {
	subs := Nov2014Top10()
	for i := 0; i < b.N; i++ {
		if _, err := RankStability(subs, 0.15, 100, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVarianceDecomp regenerates the uncertainty-budget experiment.
func BenchmarkVarianceDecomp(b *testing.B) { runArtifact(b, core.VarianceDecomp) }
