package core

import (
	"context"
	"fmt"

	"nodevar/internal/meter"
	"nodevar/internal/methodology"
	"nodevar/internal/parallel"
	"nodevar/internal/report"
	"nodevar/internal/stats"
)

// VarianceDecomp is the uncertainty-budget experiment: the paper notes
// that "both the measurement phase and the machine fraction, as well as
// subset selection, play key roles in measurement accuracy" — this
// experiment isolates each factor's contribution on one simulated
// machine.
const VarianceDecomp ID = "variance"

func init() {
	registry[VarianceDecomp] = runVarianceDecomp
}

// varianceFactor describes one isolated error source.
type varianceFactor struct {
	name string
	// measure performs one trial with only this factor randomized.
	measure func(seed uint64) (float64, error)
}

// varianceMeter is the Level-1-class instrument of the variance study:
// ~1.25% calibration spread, 0.5% per-reading noise, 1 Hz.
var varianceMeter = meter.Spec{GainErrorCV: 0.0125, NoiseCV: 0.005, SamplePeriod: 1}

// runVarianceDecomp measures each error source in isolation and all of
// them together, reporting standard deviations of the reported power in
// percent of truth.
func runVarianceDecomp(_ context.Context, opts Options) (Result, error) {
	target, err := rulesCluster(opts)
	if err != nil {
		return nil, err
	}
	truth, err := methodology.TrueAverage(target)
	if err != nil {
		return nil, err
	}
	l1 := methodology.MustLevelSpec(methodology.Level1)
	fullRun := l1
	fullRun.Timing = methodology.FullRun
	wholeSystem := l1
	wholeSystem.WholeSystem = true

	rel := func(m *methodology.Measurement) float64 {
		return (float64(m.SystemPower) - float64(truth)) / float64(truth)
	}
	factors := []varianceFactor{
		{
			// Window placement only: whole system metered perfectly, but
			// the Level-1 window lands at a random legal position.
			name: "window placement only",
			measure: func(seed uint64) (float64, error) {
				m, err := methodology.Measure(target, wholeSystem, methodology.Options{Seed: seed})
				if err != nil {
					return 0, err
				}
				return rel(m), nil
			},
		},
		{
			// Subset choice only: full core phase, perfect meter, random
			// 1/64-style subset.
			name: "node subset only",
			measure: func(seed uint64) (float64, error) {
				m, err := methodology.Measure(target, fullRun, methodology.Options{Seed: seed})
				if err != nil {
					return 0, err
				}
				return rel(m), nil
			},
		},
		{
			// Instrument only: full run, whole system, but a Level-1-class
			// meter with ~1.25% calibration spread.
			name: "instrument error only",
			measure: func(seed uint64) (float64, error) {
				spec := fullRun
				spec.WholeSystem = true
				m, err := methodology.Measure(target, spec, methodology.Options{
					Seed:  seed,
					Meter: varianceMeter,
				})
				if err != nil {
					return 0, err
				}
				return rel(m), nil
			},
		},
		{
			// Everything at once: the realistic original Level 1.
			name: "all factors (original Level 1)",
			measure: func(seed uint64) (float64, error) {
				m, err := methodology.Measure(target, l1, methodology.Options{
					Seed:  seed,
					Meter: varianceMeter,
				})
				if err != nil {
					return 0, err
				}
				return rel(m), nil
			},
		},
		{
			// Everything, under the paper's revised rule.
			name: "all factors (revised rule)",
			measure: func(seed uint64) (float64, error) {
				m, err := methodology.Measure(target, methodology.RevisedLevel1(), methodology.Options{
					Seed:  seed,
					Meter: varianceMeter,
				})
				if err != nil {
					return 0, err
				}
				return rel(m), nil
			},
		},
	}

	t := report.NewTable(
		fmt.Sprintf("Uncertainty budget on the 128-node GPU testbed (%d trials per factor, truth %.1f kW)",
			opts.MeasurementTrials, truth.Kilowatts()),
		"Error source", "Error sd", "Worst |error|")
	for _, f := range factors {
		// Trials are seeded per index, so they parallelize; the
		// accumulator then consumes the values in index order, keeping the
		// floating-point summation identical to a sequential run.
		vals := make([]float64, opts.MeasurementTrials)
		failures := make([]error, opts.MeasurementTrials)
		parallel.ForDynamic(opts.MeasurementTrials, func(k int) {
			vals[k], failures[k] = f.measure(opts.Seed + uint64(k)*104729)
		})
		for _, err := range failures {
			if err != nil {
				return nil, err
			}
		}
		var acc stats.Accumulator
		worst := 0.0
		for _, v := range vals {
			acc.Add(v)
			if a := v; a < 0 {
				a = -a
				if a > worst {
					worst = a
				}
			} else if a > worst {
				worst = a
			}
		}
		t.AddRow(f.name,
			fmt.Sprintf("%.2f%%", acc.StdDev()*100),
			fmt.Sprintf("%.2f%%", worst*100))
	}
	return &baseResult{
		id:     VarianceDecomp,
		title:  "Variance decomposition — which factor drives Level-1 error",
		tables: []*report.Table{t},
	}, nil
}
