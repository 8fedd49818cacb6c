package methodology

import (
	"errors"
	"fmt"

	"nodevar/internal/power"
)

// maxSearchSteps bounds the gaming search's window-start granularity.
const maxSearchSteps = 4096

// BestWindow finds the start of the length-long window within
// [regionLo, regionHi] whose average power is lowest, scanning at most
// steps candidate positions. It returns the best window start.
func BestWindow(tr *power.Trace, regionLo, regionHi, length float64, steps int) (float64, error) {
	if length <= 0 {
		return 0, errors.New("methodology: window length must be positive")
	}
	if regionHi-regionLo < length {
		return 0, fmt.Errorf("methodology: region [%v, %v] shorter than window %v",
			regionLo, regionHi, length)
	}
	if steps < 2 {
		steps = 2
	}
	span := regionHi - length - regionLo
	stride := span / float64(steps-1)
	// Both window ends only move forward, so one walking reader replaces
	// two binary searches per candidate with the same averages.
	w := tr.WindowCursor()
	bestLo := regionLo
	bestAvg, err := w.AverageBetween(regionLo, regionLo+length)
	if err != nil {
		return 0, err
	}
	if span <= 0 {
		return bestLo, nil
	}
	for i := 1; i < steps; i++ {
		lo := regionLo + float64(i)*stride
		avg, err := w.AverageBetween(lo, lo+length)
		if err != nil {
			return 0, err
		}
		if avg < bestAvg {
			bestAvg, bestLo = avg, lo
		}
	}
	return bestLo, nil
}

// GamingReport quantifies how much a Level-1-style window can be gamed on
// a given run, reproducing the TSUBAME-KFC (-10.9% power) and L-CSC
// (+23.9% efficiency) cases of Section 3.
type GamingReport struct {
	System string
	// TrueAvg is the full-core-phase average power.
	TrueAvg power.Watts
	// BestWindowAvg is the average over the most favourable legal window.
	BestWindowAvg power.Watts
	// WindowLo/WindowHi locate that window.
	WindowLo, WindowHi float64
	// PowerReduction is 1 - BestWindowAvg/TrueAvg (TSUBAME-KFC's
	// "10.9% reduction in its power consumption measurement").
	PowerReduction float64
	// EfficiencyGain is TrueAvg/BestWindowAvg - 1 (L-CSC's "23.9%
	// improved power efficiency").
	EfficiencyGain float64
}

// level1Region returns the Level 1 placement region of the core phase
// [start, end], its middle 80%, and the spec's window length for the
// phase clamped to that region.
func level1Region(spec Spec, start, end float64) (regionLo, regionHi, length float64) {
	regionLo, regionHi = power.Middle80.Window(start, end)
	length = spec.WindowLength(end - start)
	if length > regionHi-regionLo {
		length = regionHi - regionLo
	}
	return regionLo, regionHi, length
}

// AnalyzeGaming measures the exposure of a system trace to optimal-window
// selection under the original Level 1 timing rule.
func AnalyzeGaming(name string, tr *power.Trace) (*GamingReport, error) {
	if tr == nil || tr.Len() < 2 {
		return nil, errors.New("methodology: gaming analysis needs a trace")
	}
	spec := MustLevelSpec(Level1)
	regionLo, regionHi, length := level1Region(spec, tr.Start(), tr.End())
	lo, err := BestWindow(tr, regionLo, regionHi, length, maxSearchSteps)
	if err != nil {
		return nil, err
	}
	trueAvg, err := tr.Average()
	if err != nil {
		return nil, err
	}
	bestAvg, err := tr.AverageBetween(lo, lo+length)
	if err != nil {
		return nil, err
	}
	return &GamingReport{
		System:         name,
		TrueAvg:        trueAvg,
		BestWindowAvg:  bestAvg,
		WindowLo:       lo,
		WindowHi:       lo + length,
		PowerReduction: 1 - float64(bestAvg)/float64(trueAvg),
		EfficiencyGain: float64(trueAvg)/float64(bestAvg) - 1,
	}, nil
}
