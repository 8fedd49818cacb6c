package core

import (
	"context"
	"fmt"

	"nodevar/internal/cluster"
	"nodevar/internal/hpl"
	"nodevar/internal/methodology"
	"nodevar/internal/parallel"
	"nodevar/internal/report"
	"nodevar/internal/rng"
	"nodevar/internal/stats"
	"nodevar/internal/workload"
)

// TargetFromRun adapts a simulated cluster run to the methodology
// package's measurement target.
func TargetFromRun(name string, res *cluster.RunResult, perfGFlops float64) methodology.Target {
	return methodology.Target{
		Name:        name,
		TotalNodes:  res.Cluster.N(),
		System:      res.System,
		SubsetTrace: res.SubsetTraceBetween,
		PerfGFlops:  perfGFlops,
	}
}

// rulesHPL is the rules testbed's HPL template: an in-core GPU run with
// a pronounced power tail, sized to rulesRuntime seconds.
var rulesHPL = hpl.Config{
	BlockSize:      768,
	Nodes:          128,
	NodePeak:       5000,
	PeakEfficiency: 0.65,
	TailKnee:       0.04,
	PanelFraction:  0.02,
	StepOverhead:   2.0,
}

// rulesRuntime is the rules testbed's core-phase target in seconds.
const rulesRuntime = 3600

// rulesCluster builds the end-to-end test machine for the rules study: a
// 128-node GPU-style cluster running an in-core HPL with a pronounced
// power tail, the configuration where the original Level 1 fails hardest.
func rulesCluster(opts Options) (methodology.Target, error) {
	hplCfg := rulesHPL
	n, err := hpl.MatrixOrderForRuntime(hplCfg, rulesRuntime)
	if err != nil {
		return methodology.Target{}, err
	}
	hplCfg.MatrixOrder = n
	run, err := hpl.Simulate(hplCfg)
	if err != nil {
		return methodology.Target{}, err
	}
	load, err := workload.NewHPL(run)
	if err != nil {
		return methodology.Target{}, err
	}
	model := cluster.NodeModel{
		IdleWatts:        420,
		DynamicWatts:     1050,
		ThermalTau:       180,
		TempRiseIdle:     8,
		TempRiseLoad:     40,
		LeakagePerDegree: 0.0012,
		Fan:              cluster.NewAutoFan(25, 160, 30, 68),
		PSU:              cluster.PSUModel{RatedWatts: 2000, PeakEff: 0.94, LowLoadEff: 0.82, Knee: 0.25},
	}
	variation := cluster.Variation{
		IdleCV:          0.012,
		DynamicCV:       0.02,
		FanCV:           0.08,
		OutlierFraction: 0.015,
	}
	cl, err := cluster.New("rules-testbed", 128, model, variation, 24, rng.New(opts.Seed))
	if err != nil {
		return methodology.Target{}, err
	}
	res, err := cluster.Run(cl, load, cluster.RunOptions{SamplePeriod: 2, ColdStart: true})
	if err != nil {
		return methodology.Target{}, err
	}
	return TargetFromRun("rules-testbed", res, float64(run.Rmax)), nil
}

// errorStats summarizes signed relative errors of repeated measurements.
type errorStats struct {
	mean, sd, lo, hi float64
}

func summarizeErrors(errs []float64) errorStats {
	var acc stats.Accumulator
	acc.AddSlice(errs)
	return errorStats{mean: acc.Mean(), sd: acc.StdDev(), lo: acc.Min(), hi: acc.Max()}
}

// runRules is the end-to-end integration experiment: repeated
// measurements of one simulated machine under the original levels and
// the paper's revised rule, quantifying the spread each rule permits.
func runRules(_ context.Context, opts Options) (Result, error) {
	target, err := rulesCluster(opts)
	if err != nil {
		return nil, err
	}
	truth, err := methodology.TrueAverage(target)
	if err != nil {
		return nil, err
	}

	type config struct {
		name      string
		spec      methodology.Spec
		placement methodology.WindowPlacement
	}
	configs := []config{
		{"Level 1 (random window)", methodology.MustLevelSpec(methodology.Level1), methodology.PlaceRandom},
		{"Level 1 (gamed window)", methodology.MustLevelSpec(methodology.Level1), methodology.PlaceBest},
		{"Level 2", methodology.MustLevelSpec(methodology.Level2), methodology.PlaceRandom},
		{"Level 3", methodology.MustLevelSpec(methodology.Level3), methodology.PlaceRandom},
		{"Revised Level 1 (paper)", methodology.RevisedLevel1(), methodology.PlaceRandom},
	}

	t := report.NewTable(
		fmt.Sprintf("Repeated measurements of one simulated 128-node GPU machine (truth = %.1f kW, %d trials each)",
			truth.Kilowatts(), opts.MeasurementTrials),
		"Rule", "Nodes", "Mean error", "Error sd", "Worst low", "Worst high", "Spread")
	for _, cfg := range configs {
		trials := opts.MeasurementTrials
		if cfg.placement == methodology.PlaceBest {
			// The gamed window is deterministic; vary only the subset.
			trials = min(trials, 50)
		}
		// Trials are independent — each derives its own seed from the
		// trial index — so they run in parallel with index-addressed
		// results, keeping the summary identical to the sequential order.
		errs := make([]float64, trials)
		nodes := make([]int, trials)
		failures := make([]error, trials)
		parallel.ForDynamic(trials, func(k int) {
			m, err := methodology.Measure(target, cfg.spec, methodology.Options{
				Placement: cfg.placement,
				Seed:      opts.Seed + uint64(k)*7919,
			})
			if err != nil {
				failures[k] = err
				return
			}
			rel, err := m.RelativeError(target)
			if err != nil {
				failures[k] = err
				return
			}
			errs[k] = rel
			nodes[k] = m.NodesUsed
		})
		for _, err := range failures {
			if err != nil {
				return nil, err
			}
		}
		nodesUsed := nodes[trials-1]
		es := summarizeErrors(errs)
		t.AddRow(cfg.name,
			fmt.Sprint(nodesUsed),
			fmt.Sprintf("%+.2f%%", es.mean*100),
			fmt.Sprintf("%.2f%%", es.sd*100),
			fmt.Sprintf("%+.2f%%", es.lo*100),
			fmt.Sprintf("%+.2f%%", es.hi*100),
			fmt.Sprintf("%.2f%%", (es.hi-es.lo)*100),
		)
	}

	// The node-count comparison across system scales.
	rules := report.NewTable("Old 1/64 rule vs revised max(16, 10%) rule",
		"System size", "1/64 rule", "Revised rule")
	for _, n := range []int{128, 210, 1000, 5040, 9216, 18688} {
		old, revised := methodology.OldVsRevisedNodeDelta(n)
		rules.AddRow(fmt.Sprint(n), fmt.Sprint(old), fmt.Sprint(revised))
	}

	return &baseResult{
		id:     Rules,
		title:  "Rules study — measurement spread under old and revised requirements",
		tables: []*report.Table{t, rules},
	}, nil
}
