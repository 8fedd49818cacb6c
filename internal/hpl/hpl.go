// Package hpl models the progression of a High-Performance Linpack run:
// a blocked right-looking LU factorization whose trailing matrix shrinks
// step by step. The model yields the run's duration, its achieved
// performance (Rmax), and — most importantly for this paper — the compute
// utilization as a function of time, which is what makes GPU in-core runs
// short with a steep power tail while CPU out-of-core runs are long and
// flat (Section 3, Figure 1).
package hpl

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"nodevar/internal/power"
)

// Config describes an HPL run on a homogeneous machine.
type Config struct {
	// MatrixOrder is the problem size N.
	MatrixOrder int
	// BlockSize is the panel/block width NB.
	BlockSize int
	// Nodes is the number of participating nodes.
	Nodes int
	// NodePeak is the per-node peak floating-point rate.
	NodePeak power.GFlops
	// PeakEfficiency is the fraction of peak achieved on a very large
	// trailing matrix (HPL efficiency, typically 0.6-0.9 for CPU systems,
	// lower for accelerators).
	PeakEfficiency float64
	// TailKnee controls how quickly update (DGEMM) efficiency collapses as
	// the trailing matrix shrinks:
	// efficiency(m) = PeakEfficiency * m/(m + TailKnee*N).
	// Small values (~0.002) give the flat profile of long CPU runs; large
	// values (~0.05+) contribute to the pronounced tail of in-core GPU
	// runs.
	TailKnee float64
	// PanelFraction is the fraction of machine peak achieved during the
	// panel factorization, which runs on the host at a much lower rate
	// than the trailing update. On accelerated systems this is small
	// (~0.01-0.03): late steps are then dominated by panel time during
	// which the accelerators idle, which is what produces the steep
	// power tail of in-core GPU HPL. On CPU systems ~0.1-0.3 keeps the
	// profile flat.
	PanelFraction float64
	// StepOverhead is a fixed per-step time in seconds (pivot search,
	// panel broadcast, host-device synchronization) during which the
	// compute units idle entirely. It is what keeps late steps from
	// collapsing to zero wall time and produces the long low-power tail
	// of in-core GPU runs; CPU systems use values near zero.
	StepOverhead float64
	// SetupTime and TeardownTime are the non-core phases before and after
	// the timed computation, in seconds.
	SetupTime    float64
	TeardownTime float64
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.MatrixOrder <= 0:
		return errors.New("hpl: MatrixOrder must be positive")
	case c.BlockSize <= 0 || c.BlockSize > c.MatrixOrder:
		return fmt.Errorf("hpl: BlockSize %d outside (0, %d]", c.BlockSize, c.MatrixOrder)
	case c.Nodes <= 0:
		return errors.New("hpl: Nodes must be positive")
	case !(c.NodePeak > 0) || math.IsInf(float64(c.NodePeak), 1):
		return fmt.Errorf("hpl: NodePeak %v must be positive and finite", c.NodePeak)
	case !(c.PeakEfficiency > 0) || !(c.PeakEfficiency <= 1):
		return fmt.Errorf("hpl: PeakEfficiency %v outside (0, 1]", c.PeakEfficiency)
	case !(c.TailKnee >= 0) || math.IsInf(c.TailKnee, 1):
		return fmt.Errorf("hpl: TailKnee %v must be non-negative and finite", c.TailKnee)
	case !(c.PanelFraction > 0) || !(c.PanelFraction <= 1):
		return fmt.Errorf("hpl: PanelFraction %v outside (0, 1]", c.PanelFraction)
	case !(c.StepOverhead >= 0) || math.IsInf(c.StepOverhead, 1):
		return fmt.Errorf("hpl: StepOverhead %v must be non-negative and finite", c.StepOverhead)
	case !(c.SetupTime >= 0) || math.IsInf(c.SetupTime, 1):
		return fmt.Errorf("hpl: SetupTime %v must be non-negative and finite", c.SetupTime)
	case !(c.TeardownTime >= 0) || math.IsInf(c.TeardownTime, 1):
		return fmt.Errorf("hpl: TeardownTime %v must be non-negative and finite", c.TeardownTime)
	}
	return nil
}

// Step is one panel step of the factorization.
type Step struct {
	// Start is the step's start time in seconds from the beginning of the
	// core phase.
	Start float64
	// Duration is the step's wall time in seconds.
	Duration float64
	// Trailing is the trailing-matrix order at the start of the step.
	Trailing int
	// Utilization is the machine compute utilization during the step,
	// normalized so a full-sized trailing matrix gives 1.0.
	Utilization float64
	// Flops is the floating-point work performed in the step.
	Flops float64
}

// Run is a completed HPL progression.
type Run struct {
	Config Config
	Steps  []Step
	// CoreDuration is the core-phase wall time in seconds.
	CoreDuration float64
	// TotalFlops is 2/3 N³ + 3/2 N² (the HPL operation count).
	TotalFlops float64
	// Rmax is the achieved performance over the core phase.
	Rmax power.GFlops

	stepStarts []float64
}

// efficiency returns the achieved fraction of machine peak for a trailing
// matrix of order m.
func (c Config) efficiency(m int) float64 {
	knee := c.TailKnee * float64(c.MatrixOrder)
	return c.PeakEfficiency * float64(m) / (float64(m) + knee)
}

// machinePeak returns the machine's peak rate in flops/s.
func (c Config) machinePeak() float64 {
	return float64(c.NodePeak) * float64(c.Nodes) * 1e9
}

// steps returns the number of panel steps.
func (c Config) steps() int {
	return (c.MatrixOrder + c.BlockSize - 1) / c.BlockSize
}

// step is the arithmetic of panel step k, all of Step but its Start.
// Simulate and the runtime search both take their durations from here,
// so the search sees Simulate's CoreDuration bit for bit.
func (c *Config) step(machinePeak float64, k int) Step {
	nb := c.BlockSize
	m := c.MatrixOrder - k*nb
	width := nb
	if m < nb {
		width = m
	}
	// Trailing update: 2*width*m² flops at DGEMM efficiency.
	updateFlops := 2 * float64(width) * float64(m) * float64(m)
	eff := c.efficiency(m)
	updateTime := updateFlops / (machinePeak * eff)
	// Panel factorization + solve: ~m*width² flops at the (much
	// lower) host rate. On accelerated systems this serial fraction
	// dominates small trailing steps and the accelerators idle.
	panelFlops := float64(m) * float64(width) * float64(width)
	panelTime := panelFlops / (machinePeak * c.PanelFraction)
	dur := updateTime + panelTime + c.StepOverhead
	// Utilization: rate-weighted activity normalized so full-speed
	// DGEMM on a huge trailing matrix is 1.0; the fixed overhead
	// contributes zero activity.
	util := (updateTime*eff + panelTime*c.PanelFraction) /
		(dur * c.PeakEfficiency)
	return Step{Duration: dur, Trailing: m, Utilization: util, Flops: updateFlops + panelFlops}
}

// coreDuration is Simulate(c).CoreDuration without building the steps.
func (c Config) coreDuration() (float64, error) {
	if err := c.Validate(); err != nil {
		return 0, err
	}
	peak, nSteps := c.machinePeak(), c.steps()
	now := 0.0
	for k := 0; k < nSteps; k++ {
		now += c.step(peak, k).Duration
	}
	return now, nil
}

// Simulate computes the full progression.
func Simulate(c Config) (*Run, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	n := c.MatrixOrder
	peak, nSteps := c.machinePeak(), c.steps()
	steps := make([]Step, nSteps)
	now := 0.0
	for k := range steps {
		steps[k] = c.step(peak, k)
		steps[k].Start = now
		now += steps[k].Duration
	}
	nf := float64(n)
	totalFlops := 2.0/3.0*nf*nf*nf + 1.5*nf*nf
	run := &Run{
		Config:       c,
		Steps:        steps,
		CoreDuration: now,
		TotalFlops:   totalFlops,
		Rmax:         power.GFlops(totalFlops / now / 1e9),
	}
	run.stepStarts = make([]float64, len(steps))
	for i, s := range steps {
		run.stepStarts[i] = s.Start
	}
	return run, nil
}

// UtilizationAt returns the machine utilization at core-phase time t
// (seconds). Outside [0, CoreDuration] it returns 0, representing the
// setup and teardown phases.
func (r *Run) UtilizationAt(t float64) float64 {
	if t < 0 || t >= r.CoreDuration || len(r.Steps) == 0 {
		return 0
	}
	i := sort.SearchFloat64s(r.stepStarts, t)
	if i == len(r.stepStarts) || r.stepStarts[i] > t {
		i--
	}
	return r.Steps[i].Utilization
}

// MeanUtilization returns the time-weighted mean utilization over the
// core phase.
func (r *Run) MeanUtilization() float64 {
	var acc float64
	for _, s := range r.Steps {
		acc += s.Utilization * s.Duration
	}
	return acc / r.CoreDuration
}

// SegmentUtilization returns the time-weighted mean utilization over the
// normalized core-phase segment [lo, hi] (fractions of CoreDuration).
func (r *Run) SegmentUtilization(lo, hi float64) float64 {
	if !(lo >= 0 && lo < hi && hi <= 1) {
		panic("hpl: invalid segment")
	}
	a := lo * r.CoreDuration
	b := hi * r.CoreDuration
	var acc float64
	for _, s := range r.Steps {
		s0, s1 := s.Start, s.Start+s.Duration
		o0, o1 := math.Max(a, s0), math.Min(b, s1)
		if o1 > o0 {
			acc += s.Utilization * (o1 - o0)
		}
	}
	return acc / (b - a)
}

// MatrixOrderForRuntime returns the smallest matrix order N above the
// block size whose simulated core phase lasts at least target seconds for
// the given configuration template (its MatrixOrder field is ignored), or
// fails as unreachably long when N would exceed the first power-of-two
// multiple of the block size above 1<<28.
//
// The search is exact: core duration strictly increases in N (every
// step's update and panel time grow with its trailing order and with N,
// and a new panel step adds time), and N is returned only once it is
// probed to reach target and N-1 (or the block size) is known not to.
// Each probe walks all N/NB panel steps, so a model picks the probes. The
// first double from 2·NB to 8·NB, with a bisection below the first that
// reaches target: at whole multiples of NB the core duration is a cubic
// in N with no constant term (sums of m² and m over the trailing orders
// m), which these three fix. A probe at 8·NB+1 measures the jump a new
// panel step adds (StepOverhead). Each later probe is the first order at
// which this cubic-plus-stairs model, shifted to pass through the
// bracket's probed ends, reaches target; on every calibrated preset that
// is the answer, and its neighbour closes the bracket. After modelProbes
// such probes the search doubles and bisects.
func MatrixOrderForRuntime(template Config, target float64) (int, error) {
	if !(target > 0) || math.IsInf(target, 1) {
		return 0, fmt.Errorf("hpl: target runtime %v must be positive and finite", target)
	}
	return searchOrder(max(template.BlockSize, 1), target, template.durationAt)
}

// durationAt is the core duration of the template at matrix order n.
func (c Config) durationAt(n int) (float64, error) {
	c.MatrixOrder = n
	if c.BlockSize > n {
		c.BlockSize = n
	}
	return c.coreDuration()
}

// modelProbes is how many probes searchOrder lets its model pick before
// it falls back to doubling and bisection.
const modelProbes = 4

// probe is an order and its core duration.
type probe struct {
	n int
	d float64
}

// searchOrder returns the smallest order n in (nb, limit] with
// duration(n) >= target, where limit is the first nb·2^k above 1<<28,
// given that the predicate is monotone in n. The first probe is 2·nb, so
// a template error surfaces as duration's error at that order.
func searchOrder(nb int, target float64, duration func(int) (float64, error)) (int, error) {
	unreachable := errors.New("hpl: target runtime unreachably long")
	below := probe{n: nb} // nb itself is never probed
	var above probe       // n is 0 until an order reaches target
	measure := func(n int) error {
		d, err := duration(n)
		if err != nil {
			return err
		}
		if d >= target {
			above = probe{n, d}
		} else {
			below = probe{n, d}
		}
		return nil
	}

	var fit [3]probe
	for i := range fit {
		if err := measure(nb << (i + 1)); err != nil {
			return 0, err
		}
		if above.n != 0 {
			break
		}
		if below.n > 1<<28 {
			return 0, unreachable
		}
		fit[i] = below
	}
	var m *model
	if above.n == 0 {
		m = newModel(nb, fit)
		if nb > 1 { // with NB = 1 every order is a whole multiple
			if err := measure(below.n + 1); err != nil {
				return 0, err
			}
			m.stair = (below.d - m.at(below.n)) / (1 - 1/float64(nb))
		}
	}

	limit := 2 * nb
	for limit <= 1<<28 {
		limit *= 2
	}
	for guided := 0; above.n == 0 || above.n-below.n > 1; guided++ {
		upper := limit
		if above.n != 0 {
			upper = above.n - 1
		}
		n := below.n + (upper-below.n+1)/2
		switch {
		case m != nil && guided < modelProbes:
			n = m.guess(below, above, target, upper)
		case above.n == 0:
			n = min(2*below.n, limit)
		}
		if err := measure(n); err != nil {
			return 0, err
		}
		if above.n == 0 && n == limit {
			return 0, unreachable
		}
	}
	return above.n, nil
}

// model is the core-duration curve searchOrder steers by: n³·w(1/n),
// where w is the quadratic through the three fit probes' d/n³, plus
// stair for each panel step the order has beyond n/nb.
type model struct {
	nb    int
	u     [3]float64 // 1/n of each fit probe
	coef  [3]float64 // Newton divided differences of d/n³ over u
	stair float64
}

func newModel(nb int, fit [3]probe) *model {
	m := &model{nb: nb}
	var w [3]float64
	for i, p := range fit {
		x := float64(p.n)
		m.u[i], w[i] = 1/x, p.d/(x*x*x)
	}
	m.coef[0] = w[0]
	m.coef[1] = (w[1] - w[0]) / (m.u[1] - m.u[0])
	m.coef[2] = ((w[2]-w[1])/(m.u[2]-m.u[1]) - m.coef[1]) / (m.u[2] - m.u[0])
	return m
}

// at returns the model's core duration at order n.
func (m *model) at(n int) float64 {
	x := float64(n)
	w := m.coef[0] + (1/x-m.u[0])*(m.coef[1]+(1/x-m.u[1])*m.coef[2])
	steps := (n + m.nb - 1) / m.nb
	return x*x*x*w + m.stair*(float64(steps)-x/float64(m.nb))
}

// guess returns the first order in (below.n, upper] at which the model
// reaches target once shifted by its misses at the bracket's probed ends
// (linearly between them), or upper if it reaches target nowhere there.
func (m *model) guess(below, above probe, target float64, upper int) int {
	rb := below.d - m.at(below.n)
	ra := rb
	if above.n != 0 {
		ra = above.d - m.at(above.n)
	}
	reaches := func(n int) bool {
		shift := rb + (ra-rb)*float64(n-below.n)/float64(max(above.n-below.n, 1))
		return m.at(n)+shift >= target
	}
	lo, hi := below.n+1, upper
	if !reaches(hi) {
		return hi
	}
	for lo < hi {
		if mid := lo + (hi-lo)/2; reaches(mid) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}
