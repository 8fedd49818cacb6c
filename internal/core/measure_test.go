package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"nodevar/internal/hpl"
	"nodevar/internal/methodology"
	"nodevar/internal/power"
	"nodevar/internal/systems"
)

// BenchmarkMeasure times one methodology.Measure on the rules testbed
// for each measurement shape a repro pass runs: the rules study's Level 1
// random and gamed windows, Level 2 and the revised rule, and the
// variance study's Level 1 under its noisy meter.
func BenchmarkMeasure(b *testing.B) {
	target, err := rulesCluster(Options{Seed: 2015})
	if err != nil {
		b.Fatal(err)
	}
	l1 := methodology.MustLevelSpec(methodology.Level1)
	cases := []struct {
		name string
		spec methodology.Spec
		opts methodology.Options
	}{
		{"level1-random", l1, methodology.Options{Placement: methodology.PlaceRandom}},
		{"level1-gamed", l1, methodology.Options{Placement: methodology.PlaceBest}},
		{"level2", methodology.MustLevelSpec(methodology.Level2), methodology.Options{}},
		{"revised", methodology.RevisedLevel1(), methodology.Options{}},
		{"variance-meter", l1, methodology.Options{Meter: varianceMeter}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			opts := c.opts
			for i := 0; i < b.N; i++ {
				opts.Seed = 2015 + uint64(i)*7919
				if _, err := methodology.Measure(target, c.spec, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// matrixOrderBySimulate is the runtime search as it ran before its
// duration-only loop and its few-probe model: doubling plus bisection,
// every probe a full hpl.Simulate.
func matrixOrderBySimulate(template hpl.Config, target float64) (int, error) {
	duration := func(n int) (float64, error) {
		c := template
		c.MatrixOrder = n
		if c.BlockSize > n {
			c.BlockSize = n
		}
		run, err := hpl.Simulate(c)
		if err != nil {
			return 0, err
		}
		return run.CoreDuration, nil
	}
	lo := max(template.BlockSize, 1)
	hi := lo * 2
	for {
		d, err := duration(hi)
		if err != nil {
			return 0, err
		}
		if d >= target {
			break
		}
		if hi > 1<<28 {
			return 0, errors.New("hpl: target runtime unreachably long")
		}
		hi *= 2
	}
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		d, err := duration(mid)
		if err != nil {
			return 0, err
		}
		if d < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi, nil
}

// sizingJob is one runtime-search question: a template and a target.
type sizingJob struct {
	name    string
	cfg     hpl.Config
	runtime float64
}

// syntheticSizingJobs returns n seeded templates and targets spanning the
// shapes the runtime search meets: CPU-style (flat, no step overhead) and
// GPU-style (steep tail, up to 5 s per step), block sizes 1-1024 and
// targets from 10 s to 55 h. Each machine is sized so the answer has
// about 1-3000 panel steps, which keeps the Simulate-per-probe oracle
// fast.
func syntheticSizingJobs(n int) []sizingJob {
	r := rand.New(rand.NewSource(27))
	out := make([]sizingJob, n)
	for i := range out {
		c := hpl.Config{
			BlockSize:      1 + r.Intn(1024),
			Nodes:          1 + r.Intn(20000),
			PeakEfficiency: 0.05 + 0.95*r.Float64(),
			TailKnee:       0.005 * r.Float64(),
			PanelFraction:  0.1 + 0.2*r.Float64(),
		}
		if i%2 == 1 {
			c.TailKnee = 0.02 + 0.04*r.Float64()
			c.PanelFraction = 0.01 + 0.03*r.Float64()
			c.StepOverhead = 5 * r.Float64()
		}
		target := 10 * math.Pow(55*3600/10, r.Float64())
		order := float64(c.BlockSize) * math.Pow(3000, r.Float64())
		flops := 2.0 / 3 * order * order * order
		c.NodePeak = power.GFlops(flops / (c.PeakEfficiency * target * float64(c.Nodes) * 1e9))
		out[i] = sizingJob{fmt.Sprintf("synthetic %d", i), c, target}
	}
	return out
}

// TestMatrixOrderForRuntimeUnchanged checks that the runtime search sizes
// every HPL run the pipeline simulates exactly as the Simulate-per-probe
// doubling-plus-bisection search did: the rules testbed, the meter study
// at several node counts and every calibrated preset, plus a seeded
// spread of synthetic templates and the templates the search must
// refuse, with the same error text.
func TestMatrixOrderForRuntimeUnchanged(t *testing.T) {
	wide := rulesHPL
	wide.BlockSize = 1024 // the first probe, 2048, already overshoots
	noEff, noBlock, unreachable := rulesHPL, rulesHPL, rulesHPL
	noEff.PeakEfficiency = 0
	noBlock.BlockSize = 0
	unreachable.BlockSize = 1 << 18
	jobs := append(syntheticSizingJobs(240),
		sizingJob{"rules testbed", rulesHPL, rulesRuntime},
		sizingJob{"block size above the answer", wide, 1},
		sizingJob{"PeakEfficiency 0", noEff, rulesRuntime},
		sizingJob{"BlockSize 0", noBlock, rulesRuntime},
		sizingJob{"unreachable target", unreachable, 1e30})
	presetsFrom := len(jobs)
	for _, s := range systems.All() {
		if s.Trace != nil {
			jobs = append(jobs, sizingJob{s.Key + " calibration", s.HPL, s.Trace.RuntimeSeconds})
		}
		if strings.HasPrefix(s.Workload, "HPL") {
			for _, nodes := range []int{16, meterStudyNodes, 256} {
				cfg := s.HPL
				cfg.Nodes = min(nodes, s.TotalNodes)
				jobs = append(jobs, sizingJob{s.Key + " meter study", cfg, meterStudyRuntime})
			}
		}
	}
	refused := map[string]bool{"PeakEfficiency 0": true, "BlockSize 0": true, "unreachable target": true}
	sized := 0
	for i, j := range jobs {
		got, gotErr := hpl.MatrixOrderForRuntime(j.cfg, j.runtime)
		want, wantErr := matrixOrderBySimulate(j.cfg, j.runtime)
		if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Fatalf("%s: error %v, Simulate-per-probe search %v", j.name, gotErr, wantErr)
		}
		if got != want {
			t.Errorf("%s: N = %d, Simulate-per-probe search gives %d", j.name, got, want)
		}
		switch {
		case i < presetsFrom && (gotErr != nil) != refused[j.name]:
			t.Errorf("%s: error %v", j.name, gotErr)
		case i >= presetsFrom && gotErr == nil:
			sized++
		}
	}
	if sized < 10 {
		t.Fatalf("only %d of %d preset sizing jobs succeeded; the preset catalog shrank", sized, len(jobs)-presetsFrom)
	}
}
