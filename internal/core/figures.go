package core

import (
	"context"
	"fmt"
	"io"
	"sort"

	"nodevar/internal/report"
	"nodevar/internal/sampling"
	"nodevar/internal/stats"
	"nodevar/internal/systems"
)

// runFigure1 reproduces the system-power-over-time plot for the four HPL
// runs, on a normalized time axis as in the paper.
func runFigure1(_ context.Context, opts Options) (Result, error) {
	rows, traces, err := reproduceTable2(opts)
	if err != nil {
		return nil, err
	}
	var series []report.Series
	data := report.NewTable("Figure 1 data: normalized time vs power (kW)",
		"System", "t/T", "Power (kW)")
	for i, r := range rows {
		tr := traces[i]
		const points = 120
		s := report.Series{Name: r.System}
		for k := 0; k <= points; k++ {
			frac := float64(k) / points
			x := tr.Start() + frac*tr.Duration()
			// Normalize each system to its core average so the four very
			// differently sized machines share one chart, as the paper's
			// stacked subplots do implicitly.
			y := float64(tr.At(x)) / float64(r.Reproduced.Core)
			s.X = append(s.X, frac)
			s.Y = append(s.Y, y)
			if k%10 == 0 {
				data.AddRow(r.System, fmt.Sprintf("%.2f", frac),
					fmt.Sprintf("%.1f", tr.At(x).Kilowatts()))
			}
		}
		series = append(series, s)
	}
	chart := &report.LineChart{
		Title:  "Figure 1: system power over time for Linpack (normalized to core average)",
		Width:  90,
		Height: 22,
		Series: series,
		YLabel: "P/P_core",
		XLabel: "fraction of core phase",
	}
	return &baseResult{
		id:     Figure1,
		title:  "Figure 1 — system average power over time for Linpack",
		tables: []*report.Table{data},
		extraRender: func(w io.Writer) error {
			return chart.Write(w)
		},
		figures: []Figure{lineFigure("figure1_power_over_time", chart)},
	}, nil
}

// runFigure2 reproduces the per-node power histograms for the six
// inter-node study systems.
func runFigure2(_ context.Context, opts Options) (Result, error) {
	var charts []*report.HistogramChart
	summary := report.NewTable("Figure 2 summary: per-node power distributions",
		"System", "Nodes", "Min (W)", "Median (W)", "Max (W)", "Skewness", "Near-normal")
	for _, s := range systems.Table4Systems() {
		xs, err := systems.NodeDataset(s, opts.Seed)
		if err != nil {
			return nil, err
		}
		h := stats.NewHistogram(xs, 24)
		labels := make([]string, len(h.Counts))
		for i := range h.Counts {
			lo, hi := h.BinEdges(i)
			labels[i] = fmt.Sprintf("%.0f-%.0f W", lo, hi)
		}
		charts = append(charts, &report.HistogramChart{
			Title:     fmt.Sprintf("Figure 2 (%s): whole-node power under load", s.Name),
			BinLabels: labels,
			Counts:    h.Counts,
		})
		sum := stats.Summarize(xs)
		rep := stats.CheckNormality(xs)
		summary.AddRow(s.Name, fmt.Sprint(sum.N),
			fmt.Sprintf("%.1f", sum.Min), fmt.Sprintf("%.1f", sum.Median),
			fmt.Sprintf("%.1f", sum.Max), fmt.Sprintf("%.2f", rep.Skewness),
			fmt.Sprint(rep.ApproxNormal()))
	}
	figs := make([]Figure, len(charts))
	for i, c := range charts {
		figs[i] = histFigure(fmt.Sprintf("figure2_%s", systems.Table4Systems()[i].Key), c)
	}
	return &baseResult{
		id:      Figure2,
		title:   "Figure 2 — histograms of whole-node power under load",
		figures: figs,
		tables:  []*report.Table{summary},
		extraRender: func(w io.Writer) error {
			for _, c := range charts {
				if err := c.Write(w); err != nil {
					return err
				}
				if _, err := fmt.Fprintln(w); err != nil {
					return err
				}
			}
			return nil
		},
	}, nil
}

// figure3SampleSizes are the subset sizes evaluated, as in the paper's
// plot ("good calibration even as low as n = 5").
var figure3SampleSizes = []int{3, 5, 10, 15, 20, 30, 50, 100}

// runFigure3 reproduces the bootstrap CI-coverage calibration study on
// the LRZ pilot sample.
func runFigure3(ctx context.Context, opts Options) (Result, error) {
	pilot, err := systems.PilotSample(systems.LRZ, opts.Seed, 516)
	if err != nil {
		return nil, err
	}
	points, err := sampling.CoverageStudyCtx(ctx, sampling.CoverageConfig{
		Pilot:        pilot,
		Population:   systems.LRZ.TotalNodes,
		SampleSizes:  figure3SampleSizes,
		Levels:       []float64{0.80, 0.95, 0.99},
		Replicates:   opts.Replicates,
		Seed:         opts.Seed,
		ResumeData:   opts.ResumeData,
		OnCheckpoint: opts.OnCheckpoint,
	})
	if err != nil {
		return nil, err
	}
	t := report.NewTable(
		fmt.Sprintf("Figure 3: CI coverage from %d-replicate bootstrap on the %d-node LRZ pilot (N = %d)",
			opts.Replicates, len(pilot), systems.LRZ.TotalNodes),
		"n", "80% coverage", "95% coverage", "99% coverage")
	byN := map[int][]sampling.CoveragePoint{}
	for _, p := range points {
		byN[p.SampleSize] = append(byN[p.SampleSize], p)
	}
	series := make([]report.Series, 3)
	for i, lv := range []float64{0.80, 0.95, 0.99} {
		series[i] = report.Series{Name: fmt.Sprintf("%.0f%% CI", lv*100)}
	}
	for _, n := range figure3SampleSizes {
		ps := byN[n]
		row := []string{fmt.Sprint(n)}
		for i, lv := range []float64{0.80, 0.95, 0.99} {
			for _, p := range ps {
				if p.Level == lv {
					row = append(row, fmt.Sprintf("%.3f", p.Coverage))
					series[i].X = append(series[i].X, float64(n))
					series[i].Y = append(series[i].Y, p.Coverage)
				}
			}
		}
		t.AddRow(row[0], row[1], row[2], row[3])
	}
	chart := &report.LineChart{
		Title:  "Figure 3: confidence interval coverage vs sample size",
		Width:  80,
		Height: 16,
		Series: series,
		YLabel: "coverage",
		XLabel: "sample size n",
	}
	return &baseResult{
		id:     Figure3,
		title:  "Figure 3 — coverage of 80/95/99% confidence intervals",
		tables: []*report.Table{t},
		extraRender: func(w io.Writer) error {
			return chart.Write(w)
		},
		figures: []Figure{lineFigure("figure3_ci_coverage", chart)},
	}, nil
}

// runFigure4 reproduces the L-CSC VID case study.
func runFigure4(_ context.Context, opts Options) (Result, error) {
	study, err := systems.RunVIDStudy(systems.VIDStudyConfig{Seed: opts.Seed})
	if err != nil {
		return nil, err
	}
	t := report.NewTable("Figure 4: power efficiency of single-node Linpack on L-CSC by GPU VID",
		"VID (V)", "774 MHz @ 1.018 V", "900 MHz @ VID", "900 MHz fan-corrected")
	// Group nodes by VID for the table.
	type agg struct {
		n                     int
		tuned, def, corrected float64
	}
	groups := map[float64]*agg{}
	var vids []float64
	for _, n := range study.Nodes {
		g, ok := groups[n.VID]
		if !ok {
			g = &agg{}
			groups[n.VID] = g
			vids = append(vids, n.VID)
		}
		g.n++
		g.tuned += n.EffTuned
		g.def += n.EffDefault
		g.corrected += n.EffCorrected
	}
	sort.Float64s(vids)
	var sTuned, sDef, sCorr report.Series
	sTuned.Name = "774 MHz / 1.018 V (fixed)"
	sDef.Name = "900 MHz / VID voltage"
	sCorr.Name = "900 MHz fan-corrected"
	for _, v := range vids {
		g := groups[v]
		t.AddRow(fmt.Sprintf("%.4f", v),
			fmt.Sprintf("%.3f", g.tuned/float64(g.n)),
			fmt.Sprintf("%.3f", g.def/float64(g.n)),
			fmt.Sprintf("%.3f", g.corrected/float64(g.n)))
		sTuned.X = append(sTuned.X, v)
		sTuned.Y = append(sTuned.Y, g.tuned/float64(g.n))
		sDef.X = append(sDef.X, v)
		sDef.Y = append(sDef.Y, g.def/float64(g.n))
		sCorr.X = append(sCorr.X, v)
		sCorr.Y = append(sCorr.Y, g.corrected/float64(g.n))
	}
	findings := report.NewTable("Figure 4 findings", "Quantity", "Value", "Paper")
	findings.AddRow("σ/μ of tuned-config efficiency",
		fmt.Sprintf("%.2f%%", study.TunedCV()*100), "1.2%")
	findings.AddRow("tuned efficiency vs VID (r²)",
		fmt.Sprintf("%.3f", study.TunedVIDCorrelation()), "unrelated (~0)")
	findings.AddRow("default efficiency slope vs VID",
		fmt.Sprintf("%.2f GFLOPS/W per V", study.DefaultSlope()), "negative trend")
	findings.AddRow("fan power effect",
		fmt.Sprintf("%.0f W", study.FanDeltaWatts), ">100 W")
	findings.AddRow("DVFS tuning gain (tuned vs default)",
		fmt.Sprintf("%.1f%%", (study.MeanTuned()/study.MeanDefault()-1)*100), "~22%")
	findings.AddRow("low-VID screening bias (25% of nodes)",
		fmt.Sprintf("%.2f%%", study.ScreeningBias(len(study.Nodes)/4)*100), "positive")

	chart := &report.LineChart{
		Title:  "Figure 4: node efficiency by VID (GFLOPS/W)",
		Width:  80,
		Height: 16,
		Series: []report.Series{sTuned, sDef, sCorr},
		YLabel: "GFLOPS/W",
		XLabel: "VID (V)",
	}
	return &baseResult{
		id:     Figure4,
		title:  "Figure 4 — L-CSC efficiency by GPU VID",
		tables: []*report.Table{t, findings},
		extraRender: func(w io.Writer) error {
			return chart.Write(w)
		},
		figures: []Figure{lineFigure("figure4_vid_efficiency", chart)},
	}, nil
}
