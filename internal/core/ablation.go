package core

import (
	"context"
	"fmt"

	"nodevar/internal/cluster"
	"nodevar/internal/report"
	"nodevar/internal/rng"
	"nodevar/internal/sampling"
	"nodevar/internal/stats"
	"nodevar/internal/systems"
	"nodevar/internal/workload"
)

// Ablation is the design-choice ablation study DESIGN.md calls out.
const Ablation ID = "ablation"

func init() {
	registry[Ablation] = runAblation
}

// runAblation quantifies what each methodological ingredient buys:
// exact t quantiles vs the z approximation, the finite population
// correction, the near-normality assumption, and the fan/balance
// mitigations of Section 5.
func runAblation(ctx context.Context, opts Options) (Result, error) {
	tables := make([]*report.Table, 0, 5)

	// 1. t vs z interval coverage (paper Section 4.2 caveat).
	pilot, err := systems.PilotSample(systems.LRZ, opts.Seed, 516)
	if err != nil {
		return nil, err
	}
	cmp, err := sampling.CompareIntervalsCtx(ctx, sampling.CoverageConfig{
		Pilot:       pilot,
		Population:  systems.LRZ.TotalNodes,
		SampleSizes: []int{3, 5, 15, 50},
		Levels:      []float64{0.95},
		Replicates:  opts.Replicates / 2,
		Seed:        opts.Seed,
	})
	if err != nil {
		return nil, err
	}
	tz := report.NewTable("Ablation 1: exact t quantile vs z approximation (95% nominal)",
		"n", "t coverage", "z coverage", "z under-coverage")
	for _, c := range cmp {
		tz.AddRow(fmt.Sprint(c.SampleSize),
			fmt.Sprintf("%.3f", c.CoverageT),
			fmt.Sprintf("%.3f", c.CoverageZ),
			fmt.Sprintf("%.3f", c.UnderCoverage()))
	}
	tables = append(tables, tz)

	// 2. Normality-assumption robustness across distribution shapes.
	shapes := []sampling.PilotShape{
		sampling.PilotNormal, sampling.PilotOutliers,
		sampling.PilotBimodal, sampling.PilotSkewed,
	}
	rb, err := sampling.RobustnessStudy(ctx, shapes, []int{5, 16, 50}, 0.95,
		600, 9216, opts.Replicates/2, opts.Seed)
	if err != nil {
		return nil, err
	}
	rob := report.NewTable("Ablation 2: 95% CI coverage by per-node power distribution shape",
		"Shape", "n=5", "n=16", "n=50")
	for i := 0; i < len(rb); i += 3 { // shape-major, sizes in order
		rob.AddRow(rb[i].Shape.String(), fmt.Sprintf("%.3f", rb[i].Coverage),
			fmt.Sprintf("%.3f", rb[i+1].Coverage), fmt.Sprintf("%.3f", rb[i+2].Coverage))
	}
	tables = append(tables, rob)

	// 3. Finite population correction effect.
	fpc, err := sampling.FPCStudy(
		sampling.Plan{Confidence: 0.95, Accuracy: 0.005, CV: 0.05},
		[]int{210, 480, 1000, 5040, 10000, 100000})
	if err != nil {
		return nil, err
	}
	ft := report.NewTable("Ablation 3: finite population correction (λ=0.5%, σ/μ=5%)",
		"Machine size N", "n without FPC", "n with FPC", "saved")
	for _, e := range fpc {
		ft.AddRow(fmt.Sprint(e.Population), fmt.Sprint(e.WithoutFPC),
			fmt.Sprint(e.WithFPC), fmt.Sprint(e.WithoutFPC-e.WithFPC))
	}
	tables = append(tables, ft)

	// 4. Fan-speed pinning (the Section 5 mitigation) on node CV.
	fanTable, err := fanAblation(opts)
	if err != nil {
		return nil, err
	}
	tables = append(tables, fanTable)

	// 5. Workload balance (the scope condition of Section 4).
	balTable, err := balanceAblation(opts)
	if err != nil {
		return nil, err
	}
	tables = append(tables, balTable)

	return &baseResult{
		id:     Ablation,
		title:  "Ablation studies — what each methodological ingredient buys",
		tables: tables,
	}, nil
}

// ablationModel is the shared node model for the cluster-level ablations.
func ablationModel() cluster.NodeModel {
	return cluster.NodeModel{
		IdleWatts:        160,
		DynamicWatts:     240,
		ThermalTau:       150,
		TempRiseIdle:     10,
		TempRiseLoad:     45,
		LeakagePerDegree: 0.001,
		Fan:              cluster.NewAutoFan(12, 140, 32, 68),
		PSU:              cluster.PSUModel{RatedWatts: 900, PeakEff: 0.94, LowLoadEff: 0.82, Knee: 0.3},
	}
}

func fanAblation(opts Options) (*report.Table, error) {
	const nodes = 1500
	load := workload.Firestarter(600)
	variation := cluster.Variation{IdleCV: 0.008, DynamicCV: 0.012, FanCV: 0.18}

	build := func(fan cluster.FanModel) (float64, error) {
		model := ablationModel()
		model.Fan = fan
		c, err := cluster.New("fan-ablation", nodes, model, variation, 24, rng.New(opts.Seed))
		if err != nil {
			return 0, err
		}
		res, err := cluster.Run(c, load, cluster.RunOptions{SamplePeriod: 10})
		if err != nil {
			return 0, err
		}
		return stats.CoefficientOfVariation(res.NodeAverages), nil
	}
	cvAuto, err := build(cluster.NewAutoFan(12, 140, 32, 68))
	if err != nil {
		return nil, err
	}
	cvFixed, err := build(cluster.NewFixedFan(12, 140, 0.35))
	if err != nil {
		return nil, err
	}
	t := report.NewTable("Ablation 4: fan regulation vs node power variability (Section 5 mitigation)",
		"Fan policy", "node power σ/μ")
	t.AddRow("automatic regulation", fmt.Sprintf("%.2f%%", cvAuto*100))
	t.AddRow("pinned to one speed", fmt.Sprintf("%.2f%%", cvFixed*100))
	t.AddRow("reduction", fmt.Sprintf("%.0f%%", (1-cvFixed/cvAuto)*100))
	return t, nil
}

func balanceAblation(opts Options) (*report.Table, error) {
	const nodes = 1200
	model := ablationModel()
	variation := cluster.Variation{IdleCV: 0.01, DynamicCV: 0.02, FanCV: 0.05}
	c, err := cluster.New("balance-ablation", nodes, model, variation, 24, rng.New(opts.Seed))
	if err != nil {
		return nil, err
	}
	base := workload.Firestarter(600)

	balanced, err := cluster.Run(c, base, cluster.RunOptions{SamplePeriod: 10})
	if err != nil {
		return nil, err
	}
	skewedLoad, err := workload.NewImbalancedSkewed(base, nodes, opts.Seed+1)
	if err != nil {
		return nil, err
	}
	imbalanced, err := cluster.RunPerNode(c, skewedLoad, cluster.RunOptions{SamplePeriod: 10})
	if err != nil {
		return nil, err
	}

	t := report.NewTable("Ablation 5: workload balance vs the normality assumption (Section 4 scope)",
		"Workload", "node σ/μ", "skewness", "near-normal", "nodes for λ=1% (Eq. 5)")
	row := func(name string, xs []float64) error {
		cv := stats.CoefficientOfVariation(xs)
		rep := stats.CheckNormality(xs)
		plan := sampling.Plan{Confidence: 0.95, Accuracy: 0.01, CV: cv, Population: nodes}
		n, err := plan.RequiredSampleSize()
		if err != nil {
			return err
		}
		t.AddRow(name, fmt.Sprintf("%.2f%%", cv*100),
			fmt.Sprintf("%.2f", rep.Skewness), fmt.Sprint(rep.ApproxNormal()), fmt.Sprint(n))
		return nil
	}
	if err := row("balanced (FIRESTARTER)", balanced.NodeAverages); err != nil {
		return nil, err
	}
	if err := row("heavily imbalanced", imbalanced.NodeAverages); err != nil {
		return nil, err
	}
	return t, nil
}
