package nodevar

import (
	"errors"
	"fmt"

	"nodevar/internal/cluster"
	"nodevar/internal/hpl"
	"nodevar/internal/rng"
	"nodevar/internal/workload"
)

// MachineConfig describes a synthetic machine for end-to-end measurement
// studies: a cluster of near-identical nodes running an HPL-shaped
// workload. It is the public entry point to the cluster/workload
// simulators for users who want to exercise the methodology on their own
// machine models rather than the paper's presets.
type MachineConfig struct {
	// Nodes is the machine size (required).
	Nodes int
	// NodeIdleWatts and NodeDynamicWatts set each node's power envelope
	// (defaults 150 W and 250 W).
	NodeIdleWatts    float64
	NodeDynamicWatts float64
	// NodeCV is the manufacturing coefficient of variation of per-node
	// dynamic power (default 0.02, the paper's typical value).
	NodeCV float64
	// GPUStyle selects an in-core GPU HPL profile (short run, steep
	// power tail) instead of a flat CPU profile.
	GPUStyle bool
	// RuntimeSeconds is the HPL core-phase duration (default 3600).
	RuntimeSeconds float64
	// SamplePeriod is the simulation resolution in seconds (default 2).
	SamplePeriod float64
	// DVFSTailFrac, when in (0, 1), engages a power-saving DVFS governor
	// from that fraction of the run onward (the clock tuning in-core GPU
	// HPL submissions used), deepening the late-run power valley.
	DVFSTailFrac float64
	// Seed fixes the machine's node variation and thermal trajectory.
	Seed uint64
}

func (c MachineConfig) fill() (MachineConfig, error) {
	if c.Nodes <= 0 {
		return c, errors.New("nodevar: MachineConfig.Nodes must be positive")
	}
	if c.NodeIdleWatts == 0 {
		c.NodeIdleWatts = 150
	}
	if c.NodeDynamicWatts == 0 {
		c.NodeDynamicWatts = 250
	}
	if c.NodeIdleWatts < 0 || c.NodeDynamicWatts <= 0 {
		return c, fmt.Errorf("nodevar: node power envelope (%v, %v) invalid",
			c.NodeIdleWatts, c.NodeDynamicWatts)
	}
	if c.NodeCV == 0 {
		c.NodeCV = 0.02
	}
	if c.NodeCV < 0 {
		return c, errors.New("nodevar: NodeCV must be non-negative")
	}
	if c.RuntimeSeconds == 0 {
		c.RuntimeSeconds = 3600
	}
	if c.RuntimeSeconds <= 0 {
		return c, errors.New("nodevar: RuntimeSeconds must be positive")
	}
	if c.SamplePeriod == 0 {
		c.SamplePeriod = 2
	}
	if c.SamplePeriod < 0 {
		return c, errors.New("nodevar: SamplePeriod must be positive")
	}
	if c.DVFSTailFrac < 0 || c.DVFSTailFrac >= 1 {
		if c.DVFSTailFrac != 0 {
			return c, errors.New("nodevar: DVFSTailFrac outside (0, 1)")
		}
	}
	return c, nil
}

// Machine is a simulated machine run ready for measurement.
type Machine struct {
	// Target is the measurement target (system and per-node traces).
	Target Target
	// NodeAverages is each node's true time-averaged power.
	NodeAverages []float64
	// RmaxGFlops is the achieved HPL performance.
	RmaxGFlops float64
}

// SimulateMachine builds the machine, runs its HPL core phase and returns
// the measurement target plus ground truth.
func SimulateMachine(cfg MachineConfig) (*Machine, error) {
	cfg, err := cfg.fill()
	if err != nil {
		return nil, err
	}
	hplCfg := hpl.Config{
		BlockSize:      256,
		Nodes:          cfg.Nodes,
		NodePeak:       500,
		PeakEfficiency: 0.8,
		TailKnee:       0.002,
		PanelFraction:  0.2,
	}
	if cfg.GPUStyle {
		hplCfg = hpl.Config{
			BlockSize:      768,
			Nodes:          cfg.Nodes,
			NodePeak:       5000,
			PeakEfficiency: 0.65,
			TailKnee:       0.04,
			PanelFraction:  0.02,
			StepOverhead:   2.0,
		}
	}
	order, err := hpl.MatrixOrderForRuntime(hplCfg, cfg.RuntimeSeconds)
	if err != nil {
		return nil, err
	}
	hplCfg.MatrixOrder = order
	run, err := hpl.Simulate(hplCfg)
	if err != nil {
		return nil, err
	}
	load, err := workload.NewHPL(run)
	if err != nil {
		return nil, err
	}

	model := cluster.NodeModel{
		IdleWatts:        cfg.NodeIdleWatts,
		DynamicWatts:     cfg.NodeDynamicWatts,
		ThermalTau:       180,
		TempRiseIdle:     8,
		TempRiseLoad:     40,
		LeakagePerDegree: 0.001,
		Fan:              cluster.NewAutoFan(0.04*cfg.NodeIdleWatts, 0.5*cfg.NodeIdleWatts, 30, 70),
		PSU: cluster.PSUModel{
			RatedWatts: 1.6 * (cfg.NodeIdleWatts + cfg.NodeDynamicWatts),
			PeakEff:    0.94, LowLoadEff: 0.82, Knee: 0.25,
		},
	}
	variation := cluster.Variation{
		IdleCV:          cfg.NodeCV / 2,
		DynamicCV:       cfg.NodeCV,
		FanCV:           cfg.NodeCV * 2,
		OutlierFraction: 0.015,
	}
	cl, err := cluster.New("machine", cfg.Nodes, model, variation, 24, rng.New(cfg.Seed))
	if err != nil {
		return nil, err
	}
	runOpts := cluster.RunOptions{
		SamplePeriod: cfg.SamplePeriod,
		ColdStart:    true,
	}
	if cfg.DVFSTailFrac > 0 {
		gov, err := cluster.PowerSaveTail(run.CoreDuration, cfg.DVFSTailFrac)
		if err != nil {
			return nil, err
		}
		runOpts.Governor = gov
	}
	res, err := cluster.Run(cl, load, runOpts)
	if err != nil {
		return nil, err
	}
	return &Machine{
		Target: Target{
			Name:        "machine",
			TotalNodes:  cfg.Nodes,
			System:      res.System,
			SubsetTrace: res.SubsetTraceBetween,
			PerfGFlops:  float64(run.Rmax),
		},
		NodeAverages: res.NodeAverages,
		RmaxGFlops:   float64(run.Rmax),
	}, nil
}

// TruePower returns the machine's ground-truth full-core-phase average
// system power.
func (m *Machine) TruePower() (Watts, error) {
	return m.Target.System.Average()
}
