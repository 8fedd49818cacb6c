package stats

// Histogram is a fixed-width binned view of a dataset, as used for the
// per-node power distributions of Figure 2.
type Histogram struct {
	// Lo is the left edge of the first bin.
	Lo float64
	// Width is the (uniform) bin width.
	Width float64
	// Counts holds one count per bin; bin i covers
	// [Lo + i*Width, Lo + (i+1)*Width), with the final bin closed on the
	// right so the maximum lands in it.
	Counts []int
	// Total is the number of binned observations.
	Total int
}

// NewHistogram bins xs into the given number of equal-width bins spanning
// [min(xs), max(xs)]. It panics if xs is empty or bins <= 0.
func NewHistogram(xs []float64, bins int) *Histogram {
	if len(xs) == 0 {
		panic(ErrEmpty)
	}
	if bins <= 0 {
		panic("stats: NewHistogram requires bins > 0")
	}
	lo, hi := Min(xs), Max(xs)
	width := (hi - lo) / float64(bins)
	if width == 0 {
		// Degenerate data: a single bin holding everything.
		width = 1
	}
	h := &Histogram{Lo: lo, Width: width, Counts: make([]int, bins)}
	for _, x := range xs {
		h.add(x)
	}
	return h
}

func (h *Histogram) add(x float64) {
	i := int((x - h.Lo) / h.Width)
	if i < 0 {
		i = 0
	}
	if i >= len(h.Counts) {
		i = len(h.Counts) - 1
	}
	h.Counts[i]++
	h.Total++
}

// BinEdges returns the left edge of bin i and the right edge.
func (h *Histogram) BinEdges(i int) (lo, hi float64) {
	return h.Lo + float64(i)*h.Width, h.Lo + float64(i+1)*h.Width
}
