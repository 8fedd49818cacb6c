package power

// Integrator averages a sample stream without keeping it. Fed the samples
// of a trace in order, Average returns exactly NewTrace(samples).Average():
// Average reads the prefix index's last entry, which is the left-to-right
// trapezoid sum from 0 that Add accumulates, and divides it by the same
// span End - Start. Timestamps must strictly increase, as NewTrace
// demands; the first sample that does not is kept as an error, with
// NewTrace's message, and later samples are ignored.
type Integrator struct {
	n           int
	first, last Sample
	sum         float64
	err         error
}

// Add feeds the next sample.
func (g *Integrator) Add(s Sample) {
	if g.err != nil {
		return
	}
	if g.n == 0 {
		g.first = s
	} else {
		if s.Time <= g.last.Time {
			g.err = nonIncreasing(g.n, s.Time, g.last.Time)
			return
		}
		g.sum += trapezoid(g.last, s)
	}
	g.last = s
	g.n++
}

// Average returns the time-weighted average power of the samples added
// so far, as Trace.Average would on a trace of them. A single sample is
// its own average; no sample at all is ErrShortTrace.
func (g *Integrator) Average() (Watts, error) {
	switch {
	case g.err != nil:
		return 0, g.err
	case g.n == 0:
		return 0, ErrShortTrace
	case g.n == 1:
		return g.first.Power, nil
	}
	return Watts(g.sum / (g.last.Time - g.first.Time)), nil
}

// WindowCursor reads window averages off a trace's prefix index with one
// walking pointer per window end instead of a binary search per end. Its
// results are bit-identical to Trace.AverageBetween. Any query order is
// correct; a scan whose window ends only move forward, like a sliding
// window search, costs amortized O(1) per read.
type WindowCursor struct {
	t *Trace
	e *energyIndex
	// lo and hi count the samples at or before the previous a and b.
	lo, hi int
}

// WindowCursor returns a window reader positioned at the trace start.
func (t *Trace) WindowCursor() *WindowCursor { return &WindowCursor{t: t} }

// AverageBetween returns the time-weighted average power over [a, b],
// exactly as Trace.AverageBetween does.
func (w *WindowCursor) AverageBetween(a, b float64) (Watts, error) {
	t := w.t
	if !(a < b) {
		// Empty, inverted and NaN windows take the trace's own path.
		return t.AverageBetween(a, b)
	}
	if len(t.samples) < 2 {
		return 0, ErrShortTrace
	}
	if err := t.checkSpan(a, b); err != nil {
		return 0, err
	}
	if w.e == nil {
		w.e = t.index()
	}
	w.lo = t.seek(w.lo, a)
	w.hi = t.seek(w.hi, b)
	e := Joules(t.energyUpTo(w.e, w.hi, b) - t.energyUpTo(w.e, w.lo, a))
	return Watts(float64(e) / (b - a)), nil
}

// seek moves j, a count of samples at or before some earlier time, to
// the count of samples at or before x.
func (t *Trace) seek(j int, x float64) int {
	s := t.samples
	for j < len(s) && s[j].Time <= x {
		j++
	}
	for j > 0 && s[j-1].Time > x {
		j--
	}
	return j
}
