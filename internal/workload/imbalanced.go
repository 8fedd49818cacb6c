package workload

import (
	"errors"
	"math"

	"nodevar/internal/rng"
)

// Imbalanced wraps a balanced workload with per-node utilization scales,
// modeling data-dependent applications where some nodes work much harder
// than others — the regime the paper's sampling guarantees exclude.
type Imbalanced struct {
	Base   Workload
	Scales []float64
}

// NewImbalanced builds an imbalanced workload with explicit per-node
// scales (each >= 0; effective utilization is clamped to [0, 1]).
func NewImbalanced(base Workload, scales []float64) (*Imbalanced, error) {
	if base == nil {
		return nil, errors.New("workload: nil base workload")
	}
	if len(scales) == 0 {
		return nil, errors.New("workload: no node scales")
	}
	for i, s := range scales {
		if s < 0 || math.IsNaN(s) {
			return nil, errors.New("workload: negative node scale")
		}
		_ = i
	}
	return &Imbalanced{Base: base, Scales: scales}, nil
}

// NewImbalancedSkewed draws heavily right-skewed scales: most nodes run
// light, a few run flat out — the "data-intensive workloads" case of the
// related work (Davis et al.) where node-to-node variation breaks
// subset extrapolation.
func NewImbalancedSkewed(base Workload, nodes int, seed uint64) (*Imbalanced, error) {
	if nodes <= 0 {
		return nil, errors.New("workload: invalid node count")
	}
	r := rng.New(seed)
	scales := make([]float64, nodes)
	for i := range scales {
		// Exponential mixture: median ~0.45, long tail to ~1.
		scales[i] = 0.25 + 0.25*r.ExpFloat64()
	}
	return NewImbalanced(base, scales)
}

// CoreDuration returns the base duration.
func (w *Imbalanced) CoreDuration() float64 { return w.Base.CoreDuration() }

// Utilization returns the node-average utilization, satisfying the
// balanced Load interface for comparison runs.
func (w *Imbalanced) Utilization(t float64) float64 {
	var sum float64
	for _, s := range w.Scales {
		sum += w.clamped(s, t)
	}
	return sum / float64(len(w.Scales))
}

// NodeUtilization returns node i's utilization (cluster.PerNodeLoad).
func (w *Imbalanced) NodeUtilization(i int, t float64) float64 {
	if i < 0 || i >= len(w.Scales) {
		return 0
	}
	return w.clamped(w.Scales[i], t)
}

func (w *Imbalanced) clamped(scale, t float64) float64 {
	u := w.Base.Utilization(t) * scale
	if u > 1 {
		return 1
	}
	if u < 0 {
		return 0
	}
	return u
}
