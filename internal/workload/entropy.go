package workload

import (
	"errors"
	"fmt"
	"math"
)

// EntropyScaled makes a workload's power draw input-data-dependent:
// arithmetic on low-entropy operands toggles fewer bits, so the same
// kernel draws measurably less power on structured inputs than on
// random ones ("Input-entropy-dependent power consumption",
// arXiv:2212.08805 characterizes up to double-digit-percent swings on
// GPUs). The modifier scales the wrapped workload's utilization by
//
//	1 - Sensitivity*(1-Entropy)
//
// so full-entropy input (Entropy=1) reproduces the wrapped workload
// exactly and fully structured input (Entropy=0) sheds the full
// Sensitivity fraction. For the methodology this is a systematic,
// workload-level effect: two submissions running the "same" benchmark
// on different input data legitimately draw different power, which no
// meter model can distinguish from instrument error.
type EntropyScaled struct {
	Core Workload
	// Entropy is the normalized input entropy in [0, 1]: 1 is
	// incompressible random data, 0 fully structured (constant) data.
	Entropy float64
	// Sensitivity is the fraction of dynamic draw shed at zero entropy,
	// in [0, 0.5]. Measured GPU kernels land around 0.1-0.3.
	Sensitivity float64
}

// NewEntropyScaled validates and wraps a workload.
func NewEntropyScaled(core Workload, entropy, sensitivity float64) (*EntropyScaled, error) {
	switch {
	case core == nil:
		return nil, errors.New("workload: entropy modifier needs a core workload")
	case math.IsNaN(entropy) || entropy < 0 || entropy > 1:
		return nil, fmt.Errorf("workload: entropy %v outside [0, 1]", entropy)
	case math.IsNaN(sensitivity) || sensitivity < 0 || sensitivity > 0.5:
		return nil, fmt.Errorf("workload: entropy sensitivity %v outside [0, 0.5]", sensitivity)
	}
	return &EntropyScaled{Core: core, Entropy: entropy, Sensitivity: sensitivity}, nil
}

// CoreDuration returns the wrapped workload's core-phase length: input
// entropy changes the draw, not the runtime model.
func (w *EntropyScaled) CoreDuration() float64 { return w.Core.CoreDuration() }

// Scale returns the utilization multiplier 1 - Sensitivity*(1-Entropy).
func (w *EntropyScaled) Scale() float64 {
	return 1 - w.Sensitivity*(1-w.Entropy)
}

// Utilization returns the wrapped utilization scaled by the entropy
// factor.
func (w *EntropyScaled) Utilization(t float64) float64 {
	return w.Core.Utilization(t) * w.Scale()
}
