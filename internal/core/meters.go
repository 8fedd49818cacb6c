package core

import (
	"context"
	"fmt"
	"strings"

	"nodevar/internal/cluster"
	"nodevar/internal/hpl"
	"nodevar/internal/methodology"
	"nodevar/internal/report"
	"nodevar/internal/rng"
	"nodevar/internal/systems"
	"nodevar/internal/workload"
)

// meterStudyNodes caps the simulated cluster size for the distortion
// study: large enough for the methodology's subset rules to bite
// (Level 2 measures 1/8, the 2 kW floor several nodes), small enough
// that simulating per-node traces for multiple systems stays cheap.
const meterStudyNodes = 128

// meterStudyRuntime is the simulated core-phase target in seconds.
const meterStudyRuntime = 1800

// DistortionTarget builds a measurement target for a preset system: a
// cluster of up to meterStudyNodes nodes scaled to the system's
// published per-node power, running the system's workload class from
// Table 3. entropy in [0, 1) additionally wraps the workload in the
// input-entropy modifier (sensitivity 0.2); entropy >= 1 runs the
// workload unmodified. Deterministic in (sysKey, nodes, entropy, seed).
func DistortionTarget(sysKey string, nodes int, entropy float64, seed uint64) (methodology.Target, error) {
	spec, err := DistortionSystem(sysKey)
	if err != nil {
		return methodology.Target{}, err
	}
	if nodes <= 0 {
		nodes = meterStudyNodes
	}
	if nodes > spec.TotalNodes {
		nodes = spec.TotalNodes
	}

	var load workload.Workload
	var perf float64
	switch spec.Workload {
	case "MPrime":
		load = workload.MPrime(meterStudyRuntime)
	case "FIRESTARTER":
		load = workload.Firestarter(meterStudyRuntime)
	case "Rodinia CFD":
		load = workload.RodiniaCFD(meterStudyRuntime)
	default: // an HPL variant with a configuration, as DistortionSystem checked
		cfg := spec.HPL
		cfg.Nodes = nodes
		order, err := hpl.MatrixOrderForRuntime(cfg, meterStudyRuntime)
		if err != nil {
			return methodology.Target{}, err
		}
		cfg.MatrixOrder = order
		run, err := hpl.Simulate(cfg)
		if err != nil {
			return methodology.Target{}, err
		}
		load, err = workload.NewHPL(run)
		if err != nil {
			return methodology.Target{}, err
		}
		perf = float64(run.Rmax)
	}
	if entropy < 1 {
		load, err = workload.NewEntropyScaled(load, entropy, 0.2)
		if err != nil {
			return methodology.Target{}, err
		}
	}

	// Node model scaled to the system's published mean per-node power,
	// with the Table 4 CV driving node-to-node variation.
	mu := spec.MeanWatts
	if mu == 0 {
		mu = 300
	}
	cv := spec.CV()
	if cv == 0 {
		cv = 0.03
	}
	model := cluster.NodeModel{
		IdleWatts:        0.45 * mu,
		DynamicWatts:     0.65 * mu,
		ThermalTau:       150,
		TempRiseIdle:     8,
		TempRiseLoad:     40,
		LeakagePerDegree: 0.001,
		Fan:              cluster.NewAutoFan(0.02*mu, 0.08*mu, 30, 68),
		PSU:              cluster.PSUModel{RatedWatts: 2 * mu, PeakEff: 0.93, LowLoadEff: 0.82, Knee: 0.25},
	}
	variation := cluster.Variation{
		IdleCV:          0.5 * cv,
		DynamicCV:       cv,
		FanCV:           0.08,
		OutlierFraction: 0.01,
	}
	cl, err := cluster.New(sysKey+"-meters", nodes, model, variation, 24, rng.New(seed))
	if err != nil {
		return methodology.Target{}, err
	}
	res, err := cluster.Run(cl, load, cluster.RunOptions{SamplePeriod: 2, ColdStart: true})
	if err != nil {
		return methodology.Target{}, err
	}
	return TargetFromRun(spec.Name, res, perf), nil
}

// DistortionSystem returns the preset sysKey when DistortionTarget can
// simulate it: its Table 3 workload has a model here, and an HPL system
// carries the HPL configuration that model runs. Callers that take a
// system key from outside (the /v1/distortion request) check it here
// before any simulation starts.
func DistortionSystem(sysKey string) (systems.Spec, error) {
	spec, err := systems.ByKey(sysKey)
	if err != nil {
		return systems.Spec{}, err
	}
	switch {
	case spec.Workload == "MPrime", spec.Workload == "FIRESTARTER", spec.Workload == "Rodinia CFD":
	case strings.HasPrefix(spec.Workload, "HPL"):
		if spec.HPL == (hpl.Config{}) {
			return systems.Spec{}, fmt.Errorf("core: %s runs %s but has no HPL configuration to simulate", sysKey, spec.Workload)
		}
	default:
		return systems.Spec{}, fmt.Errorf("core: no workload model for %q (%s)", spec.Workload, sysKey)
	}
	return spec, nil
}

// meterStudyModels returns the non-reference presets the experiment
// compares, in catalog order.
func meterStudyModels() []methodology.NamedModel {
	var out []methodology.NamedModel
	for _, p := range systems.MeterPresets() {
		if p.Key == "reference" {
			continue
		}
		out = append(out, methodology.NamedModel{Name: p.Key, Model: p.Model})
	}
	return out
}

// meterDistortionTable renders one system's report.
func meterDistortionTable(rep *methodology.DistortionReport) *report.Table {
	t := report.NewTable(
		fmt.Sprintf("%s — meter-architecture distortion (truth = %.1f kW, pilot %d nodes, seed %d)",
			rep.System, rep.TrueAvg.Kilowatts(), rep.PilotNodes, rep.Seed),
		"Meter", "Architecture", "L1 err", "L2 err", "L3 err", "L1 shift", "Pilot CV", "Table-5 n", "Δn")
	row := func(md methodology.ModelDistortion) {
		t.AddRow(md.Name, md.Architecture,
			fmt.Sprintf("%+.2f%%", md.Levels[0].ErrVsTruth*100),
			fmt.Sprintf("%+.2f%%", md.Levels[1].ErrVsTruth*100),
			fmt.Sprintf("%+.2f%%", md.Levels[2].ErrVsTruth*100),
			fmt.Sprintf("%+.2f%%", md.Levels[0].ShiftVsReference*100),
			fmt.Sprintf("%.2f%%", md.MeasuredCV*100),
			fmt.Sprint(md.SampleSize),
			fmt.Sprintf("%+d", md.SampleSizeDelta),
		)
	}
	row(rep.Reference)
	for _, md := range rep.Models {
		row(md)
	}
	return t
}

// meterStudySystems are the preset systems the experiment measures: one
// CPU HPL machine and the MPrime machine of Table 3 — different
// workload classes, both with published Table 4 statistics.
var meterStudySystems = []string{"colosse", "lrz"}

// runMeters is the meter-model distortion experiment: for each preset
// system, assess Levels 1-3 and the Table-5 sample size under each
// metering architecture and report the shift against the Reference
// instrument.
func runMeters(ctx context.Context, opts Options) (Result, error) {
	models := meterStudyModels()
	tables := make([]*report.Table, 0, len(meterStudySystems))
	for _, key := range meterStudySystems {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		target, err := DistortionTarget(key, meterStudyNodes, 1, opts.Seed)
		if err != nil {
			return nil, fmt.Errorf("target %s: %w", key, err)
		}
		rep, err := methodology.CompareMeters(target, models, methodology.DistortionConfig{Seed: opts.Seed})
		if err != nil {
			return nil, fmt.Errorf("compare %s: %w", key, err)
		}
		tables = append(tables, meterDistortionTable(rep))
	}
	return &baseResult{
		id:     Meters,
		title:  "Meter models — Level 1/2/3 and Table-5 distortion by metering architecture",
		tables: tables,
	}, nil
}
