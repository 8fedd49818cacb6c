package methodology

import (
	"errors"
	"fmt"

	"nodevar/internal/meter"
	"nodevar/internal/power"
	"nodevar/internal/rng"
	"nodevar/internal/sampling"
	"nodevar/internal/stats"
)

// This file quantifies what the metering architecture does to the
// methodology's outputs. The paper's Level 1/2/3 verdicts and Table-5
// sample sizes were all derived under one meter idiom — a calibrated
// periodic point sampler. CompareMeters re-runs the same assessment
// through other architectures (intermittent windowed sampling, on-chip
// accumulation) against a shared ground truth and reports the shift:
// how far each level's reported system power moves, and how the
// recommended sample size changes when the pilot CV itself is measured
// through a distorting instrument.

// NamedModel pairs a meter model with a preset/display name.
type NamedModel struct {
	Name  string
	Model meter.Model
}

// DistortionConfig configures a meter-model comparison.
type DistortionConfig struct {
	// Confidence and Accuracy parameterize the Table-5 sample-size
	// recommendation recomputed from each model's measured pilot
	// (defaults 0.95 and 0.01 — the paper's 95%, λ=1%).
	Confidence float64
	Accuracy   float64
	// PilotNodes is the pilot subset size for the sample-size phase
	// (default 48, capped at the system size).
	PilotNodes int
	// Seed fixes the pilot subset, window placement and every
	// instrument draw.
	Seed uint64
}

func (c *DistortionConfig) fill() {
	if c.Confidence == 0 {
		c.Confidence = 0.95
	}
	if c.Accuracy == 0 {
		c.Accuracy = 0.01
	}
	if c.PilotNodes == 0 {
		c.PilotNodes = 48
	}
	if c.Seed == 0 {
		c.Seed = 2015
	}
}

// LevelDistortion is one level's verdict under one meter model.
type LevelDistortion struct {
	Level Level
	// SystemPower is the reported whole-system power.
	SystemPower power.Watts
	// ErrVsTruth is the signed relative error against the ground-truth
	// core-phase average.
	ErrVsTruth float64
	// ShiftVsReference is the signed relative shift against the
	// Reference meter's report for the same level, seed and subset —
	// the distortion attributable to metering architecture alone.
	ShiftVsReference float64
}

// ModelDistortion is one meter model's full assessment.
type ModelDistortion struct {
	// Name is the preset name; Architecture the meter.Model name.
	Name         string
	Architecture string
	// Levels holds the three level verdicts.
	Levels []LevelDistortion
	// MeasuredCV is the pilot per-node power CV as seen through this
	// model's instruments.
	MeasuredCV float64
	// SampleSize is the Table-5 style two-phase recommendation computed
	// from the measured pilot; SampleSizeDelta is the difference vs the
	// Reference meter's recommendation (positive: the distorted CV
	// demands more nodes).
	SampleSize      int
	SampleSizeDelta int
}

// DistortionReport compares meter models on one target.
type DistortionReport struct {
	System     string
	TrueAvg    power.Watts
	Seed       uint64
	Confidence float64
	Accuracy   float64
	PilotNodes int
	// Reference is the periodic Reference-meter baseline every shift is
	// relative to; Models are the compared architectures.
	Reference ModelDistortion
	Models    []ModelDistortion
}

// distortionLevels are the specs each model is assessed under.
func distortionLevels() []Spec {
	return []Spec{MustLevelSpec(Level1), MustLevelSpec(Level2), MustLevelSpec(Level3)}
}

// CompareMeters runs the Level 1/2/3 assessment and the pilot-based
// sample-size recommendation under each model and reports the shifts
// against the Reference meter. The pilot subset, window placement and
// node subsets are shared across models (same seed, and instrument
// randomness lives on a derived stream), so every reported shift is
// attributable to the metering architecture. Deterministic: same
// target, models and config — same report.
func CompareMeters(t Target, models []NamedModel, cfg DistortionConfig) (*DistortionReport, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	if t.SubsetTrace == nil {
		return nil, errors.New("methodology: meter comparison needs per-node traces for the pilot phase")
	}
	if len(models) == 0 {
		return nil, errors.New("methodology: no meter models to compare")
	}
	cfg.fill()
	truth, err := TrueAverage(t)
	if err != nil {
		return nil, err
	}

	// Pilot subset: drawn once, shared by every model.
	pilotN := cfg.PilotNodes
	if pilotN > t.TotalNodes {
		pilotN = t.TotalNodes
	}
	if pilotN < 2 {
		return nil, fmt.Errorf("methodology: pilot of %d nodes is too small", pilotN)
	}
	pilotIdx := rng.New(cfg.Seed).SampleWithoutReplacement(t.TotalNodes, pilotN)

	rep := &DistortionReport{
		System:     t.Name,
		TrueAvg:    truth,
		Seed:       cfg.Seed,
		Confidence: cfg.Confidence,
		Accuracy:   cfg.Accuracy,
		PilotNodes: pilotN,
	}

	// Reference baseline: nil Model selects the periodic Reference spec.
	ref, err := assessModel(t, "reference", nil, pilotIdx, cfg, float64(truth), nil)
	if err != nil {
		return nil, err
	}
	rep.Reference = *ref

	for _, nm := range models {
		if nm.Model == nil {
			return nil, fmt.Errorf("methodology: model %q is nil", nm.Name)
		}
		if err := nm.Model.Validate(); err != nil {
			return nil, fmt.Errorf("methodology: model %q: %w", nm.Name, err)
		}
		md, err := assessModel(t, nm.Name, nm.Model, pilotIdx, cfg, float64(truth), ref)
		if err != nil {
			return nil, fmt.Errorf("methodology: model %q: %w", nm.Name, err)
		}
		rep.Models = append(rep.Models, *md)
	}
	return rep, nil
}

// assessModel runs the three levels and the pilot phase under one model.
// ref is nil when assessing the reference baseline itself.
func assessModel(t Target, name string, model meter.Model, pilotIdx []int, cfg DistortionConfig, truth float64, ref *ModelDistortion) (*ModelDistortion, error) {
	md := &ModelDistortion{Name: name, Architecture: "periodic"}
	if model != nil {
		md.Architecture = model.ModelName()
	}

	for li, spec := range distortionLevels() {
		m, err := Measure(t, spec, Options{
			Placement: PlaceCenter,
			Model:     model,
			Seed:      cfg.Seed,
		})
		if err != nil {
			return nil, fmt.Errorf("level %d: %w", spec.Level, err)
		}
		ld := LevelDistortion{
			Level:       spec.Level,
			SystemPower: m.SystemPower,
			ErrVsTruth:  (float64(m.SystemPower) - truth) / truth,
		}
		if ref != nil {
			refPower := float64(ref.Levels[li].SystemPower)
			if refPower != 0 {
				ld.ShiftVsReference = (float64(m.SystemPower) - refPower) / refPower
			}
		}
		md.Levels = append(md.Levels, ld)
	}

	// Pilot phase: measure each pilot node's average power through a
	// per-node instrument drawn from one model-scoped stream, then
	// recompute the two-phase sample size from the measured values. A
	// distorting meter changes the apparent CV, and with it the number
	// of nodes Table 5 tells a site to measure.
	lo, hi := t.coreWindow()
	instR := rng.New(cfg.Seed ^ 0x70696c6f74)
	measured := make([]float64, len(pilotIdx))
	for i, node := range pilotIdx {
		var inst meter.Sampler
		var err error
		if model != nil {
			inst, err = model.NewInstrument(instR)
		} else {
			inst, err = meter.New(meter.Reference, instR)
		}
		if err != nil {
			return nil, err
		}
		tr, err := t.SubsetTrace([]int{node}, lo, hi)
		if err != nil {
			return nil, fmt.Errorf("pilot node %d: %w", node, err)
		}
		avg, err := inst.AveragePower(tr, lo, hi)
		if err != nil {
			return nil, fmt.Errorf("pilot node %d: %w", node, err)
		}
		measured[i] = float64(avg)
	}
	mean, sd := stats.MeanStdDev(measured)
	if mean <= 0 {
		return nil, errors.New("pilot mean power is non-positive")
	}
	md.MeasuredCV = sd / mean
	n, err := sampling.TwoPhase(measured, cfg.Confidence, cfg.Accuracy, t.TotalNodes)
	if err != nil {
		return nil, fmt.Errorf("sample size: %w", err)
	}
	md.SampleSize = n
	if ref != nil {
		md.SampleSizeDelta = n - ref.SampleSize
	}
	return md, nil
}
