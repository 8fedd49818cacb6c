// Package fit provides a small derivative-free optimizer (Nelder–Mead)
// used to calibrate simulator presets against the published numbers in
// the paper (segment averages in Table 2, preset shape parameters for
// Figures 1 and 4).
package fit

import (
	"math"
	"sort"
)

// NelderMeadOptions configures the simplex search.
type NelderMeadOptions struct {
	// MaxIter bounds the number of simplex iterations (default 1000).
	MaxIter int
	// TolF stops the search when the simplex function-value spread falls
	// below this (default 1e-10).
	TolF float64
	// TolX stops the search when the simplex diameter falls below this
	// (default 1e-10).
	TolX float64
	// InitialStep is the per-dimension offset used to build the starting
	// simplex (default: 5% of |x0_i| or 0.1 when x0_i is 0).
	InitialStep float64
}

func (o *NelderMeadOptions) fill() {
	if o.MaxIter <= 0 {
		o.MaxIter = 1000
	}
	if o.TolF <= 0 {
		o.TolF = 1e-10
	}
	if o.TolX <= 0 {
		o.TolX = 1e-10
	}
}

// Result reports the outcome of an optimization.
type Result struct {
	// X is the best point found.
	X []float64
	// F is the objective value at X.
	F float64
	// Iterations is the number of simplex iterations performed.
	Iterations int
	// Converged reports whether a tolerance (rather than MaxIter) ended
	// the search.
	Converged bool
}

type vertex struct {
	x []float64
	f float64
}

// NelderMead minimizes f starting from x0 using the Nelder-Mead downhill
// simplex method with the standard (1, 2, 0.5, 0.5) coefficients. It
// panics if x0 is empty. f must be finite over the search region; return
// math.Inf(1) from f to encode constraints.
func NelderMead(f func([]float64) float64, x0 []float64, opts NelderMeadOptions) Result {
	if len(x0) == 0 {
		panic("fit: NelderMead requires a nonempty starting point")
	}
	opts.fill()
	n := len(x0)
	verts := make([]vertex, n+1)
	verts[0] = vertex{x: append([]float64(nil), x0...)}
	verts[0].f = f(verts[0].x)
	for i := 1; i <= n; i++ {
		x := append([]float64(nil), x0...)
		step := opts.InitialStep
		if step <= 0 {
			step = 0.05 * math.Abs(x[i-1])
			if step == 0 {
				step = 0.1
			}
		}
		x[i-1] += step
		verts[i] = vertex{x: x, f: f(x)}
	}

	centroid := make([]float64, n)
	xr := make([]float64, n)
	xe := make([]float64, n)
	xc := make([]float64, n)

	iter := 0
	for ; iter < opts.MaxIter; iter++ {
		sort.Slice(verts, func(i, j int) bool { return verts[i].f < verts[j].f })
		best, worst := verts[0], verts[n]

		// Convergence tests.
		if math.Abs(worst.f-best.f) < opts.TolF && simplexDiameter(verts) < opts.TolX {
			return Result{X: best.x, F: best.f, Iterations: iter, Converged: true}
		}

		// Centroid of all but the worst vertex.
		for j := range centroid {
			centroid[j] = 0
		}
		for i := 0; i < n; i++ {
			for j, v := range verts[i].x {
				centroid[j] += v / float64(n)
			}
		}

		// Reflection.
		for j := range xr {
			xr[j] = centroid[j] + (centroid[j] - worst.x[j])
		}
		fr := f(xr)
		switch {
		case fr < best.f:
			// Expansion.
			for j := range xe {
				xe[j] = centroid[j] + 2*(centroid[j]-worst.x[j])
			}
			if fe := f(xe); fe < fr {
				copy(verts[n].x, xe)
				verts[n].f = fe
			} else {
				copy(verts[n].x, xr)
				verts[n].f = fr
			}
		case fr < verts[n-1].f:
			copy(verts[n].x, xr)
			verts[n].f = fr
		default:
			// Contraction (outside if the reflected point improved on the
			// worst, inside otherwise).
			if fr < worst.f {
				for j := range xc {
					xc[j] = centroid[j] + 0.5*(xr[j]-centroid[j])
				}
			} else {
				for j := range xc {
					xc[j] = centroid[j] + 0.5*(worst.x[j]-centroid[j])
				}
			}
			if fc := f(xc); fc < math.Min(fr, worst.f) {
				copy(verts[n].x, xc)
				verts[n].f = fc
			} else {
				// Shrink toward the best vertex.
				for i := 1; i <= n; i++ {
					for j := range verts[i].x {
						verts[i].x[j] = best.x[j] + 0.5*(verts[i].x[j]-best.x[j])
					}
					verts[i].f = f(verts[i].x)
				}
			}
		}
	}
	sort.Slice(verts, func(i, j int) bool { return verts[i].f < verts[j].f })
	return Result{X: verts[0].x, F: verts[0].f, Iterations: iter, Converged: false}
}

func simplexDiameter(verts []vertex) float64 {
	var d float64
	for i := 1; i < len(verts); i++ {
		for j, v := range verts[i].x {
			if dd := math.Abs(v - verts[0].x[j]); dd > d {
				d = dd
			}
		}
	}
	return d
}
