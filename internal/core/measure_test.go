package core

import (
	"strings"
	"testing"

	"nodevar/internal/hpl"
	"nodevar/internal/methodology"
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
// duration-only loop: every probe a full hpl.Simulate.
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

// TestMatrixOrderForRuntimeUnchanged checks that the runtime search sizes
// every HPL run the pipeline simulates exactly as the Simulate-per-probe
// search did: the rules testbed, the meter study at several node counts
// and every calibrated preset.
func TestMatrixOrderForRuntimeUnchanged(t *testing.T) {
	type job struct {
		name    string
		cfg     hpl.Config
		runtime float64
	}
	jobs := []job{{"rules testbed", rulesHPL, rulesRuntime}}
	for _, s := range systems.All() {
		if s.Trace != nil {
			jobs = append(jobs, job{s.Key + " calibration", s.HPL, s.Trace.RuntimeSeconds})
		}
		if strings.HasPrefix(s.Workload, "HPL") {
			for _, nodes := range []int{16, meterStudyNodes, 256} {
				cfg := s.HPL
				cfg.Nodes = min(nodes, s.TotalNodes)
				jobs = append(jobs, job{s.Key + " meter study", cfg, meterStudyRuntime})
			}
		}
	}
	sized := 0
	for _, j := range jobs {
		got, gotErr := hpl.MatrixOrderForRuntime(j.cfg, j.runtime)
		want, wantErr := matrixOrderBySimulate(j.cfg, j.runtime)
		if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Fatalf("%s: error %v, Simulate-per-probe search %v", j.name, gotErr, wantErr)
		}
		if got != want {
			t.Errorf("%s: N = %d, Simulate-per-probe search gives %d", j.name, got, want)
		}
		if gotErr == nil {
			sized++
		}
	}
	if sized < 10 {
		t.Fatalf("only %d of %d sizing jobs succeeded; the preset catalog shrank", sized, len(jobs))
	}
}
