package obs

import (
	"encoding/json"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing int64 metric. The zero value is
// ready to use; increments are single atomic adds.
type Counter struct {
	v atomic.Int64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n. Hot paths that would otherwise increment per item should
// batch and Add once per chunk.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a last-write-wins float64 metric.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add atomically adds delta to the gauge via compare-and-swap, so
// concurrent Add/Sub pairs can never publish a stale value the way a
// read-modify-write Set race could.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+delta)) {
			return
		}
	}
}

// Sub atomically subtracts delta from the gauge.
func (g *Gauge) Sub(delta float64) { g.Add(-delta) }

// Value returns the last stored value (0 if never set).
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// FloatCounter accumulates a float64 sum race-safely via compare-and-swap,
// for quantities like busy seconds that are not integer counts.
type FloatCounter struct {
	bits atomic.Uint64
}

// Add adds v to the sum.
func (f *FloatCounter) Add(v float64) {
	for {
		old := f.bits.Load()
		if f.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Value returns the accumulated sum.
func (f *FloatCounter) Value() float64 { return math.Float64frombits(f.bits.Load()) }

// Histogram counts observations into fixed buckets. Bucket i counts
// observations v with v <= Bounds[i] (and > Bounds[i-1]); one overflow
// bucket counts v > Bounds[len-1]. Observations are lock-free atomic adds.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1, last is overflow
	sum    FloatCounter
}

// NewHistogramBuckets builds an unregistered histogram with the given
// strictly increasing upper bounds. It panics on empty or non-increasing
// bounds.
func NewHistogramBuckets(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("obs: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram bounds must be strictly increasing")
		}
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.sum.Add(v)
}

// HistogramSnapshot is a point-in-time copy of a histogram.
type HistogramSnapshot struct {
	// Bounds are the bucket upper bounds; Counts has one extra final
	// element for observations above the last bound.
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
}

// Snapshot returns a point-in-time copy of the histogram. Each bucket
// read is atomic; the snapshot as a whole is near-simultaneous.
func (h *Histogram) Snapshot() HistogramSnapshot { return h.snapshot() }

// Quantile estimates the q-quantile (0 < q < 1) from the snapshot's
// buckets by linear interpolation inside the containing bucket (from 0
// below the first bound). Observations in the overflow bucket clamp to
// the last bound. With no observations it returns NaN.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || !(q > 0 && q < 1) {
		return math.NaN()
	}
	target := q * float64(s.Count)
	var cum int64
	for i, c := range s.Counts {
		prev := float64(cum)
		cum += c
		if float64(cum) < target || c == 0 {
			continue
		}
		if i >= len(s.Bounds) {
			return s.Bounds[len(s.Bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = s.Bounds[i-1]
		}
		hi := s.Bounds[i]
		return lo + (hi-lo)*(target-prev)/float64(c)
	}
	return s.Bounds[len(s.Bounds)-1]
}

// snapshot copies the histogram state.
func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: make([]int64, len(h.counts)),
		Sum:    h.sum.Value(),
	}
	for i := range h.counts {
		c := h.counts[i].Load()
		s.Counts[i] = c
		s.Count += c
	}
	return s
}

// Registry is a named collection of metrics. Lookups take a mutex;
// updates through the returned metric handles are lock-free, so hot
// paths resolve their metrics once (package-level vars) and never touch
// the registry again.
type Registry struct {
	mu          sync.Mutex
	counters    map[string]*Counter
	gauges      map[string]*Gauge
	floats      map[string]*FloatCounter
	hists       map[string]*Histogram
	counterVecs map[string]*CounterVec
	gaugeVecs   map[string]*GaugeVec
	histVecs    map[string]*HistogramVec
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:    map[string]*Counter{},
		gauges:      map[string]*Gauge{},
		floats:      map[string]*FloatCounter{},
		hists:       map[string]*Histogram{},
		counterVecs: map[string]*CounterVec{},
		gaugeVecs:   map[string]*GaugeVec{},
		histVecs:    map[string]*HistogramVec{},
	}
}

// defaultRegistry is the process-wide registry behind the package-level
// NewCounter/NewGauge/... constructors and Default().
var defaultRegistry = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return defaultRegistry }

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// FloatCounter returns the named float counter, creating it on first use.
func (r *Registry) FloatCounter(name string) *FloatCounter {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.floats[name]
	if !ok {
		f = &FloatCounter{}
		r.floats[name] = f
	}
	return f
}

// Histogram returns the named histogram, creating it with the given
// bounds on first use. Later calls ignore bounds and return the existing
// histogram.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = NewHistogramBuckets(bounds)
		r.hists[name] = h
	}
	return h
}

// CounterVec returns the named labelled counter family, creating it with
// the given label names on first use. Later calls ignore labels and
// return the existing family.
func (r *Registry) CounterVec(name string, labels ...string) *CounterVec {
	r.mu.Lock()
	defer r.mu.Unlock()
	v, ok := r.counterVecs[name]
	if !ok {
		v = newCounterVec(name, labels)
		r.counterVecs[name] = v
	}
	return v
}

// GaugeVec returns the named labelled gauge family, creating it with the
// given label names on first use.
func (r *Registry) GaugeVec(name string, labels ...string) *GaugeVec {
	r.mu.Lock()
	defer r.mu.Unlock()
	v, ok := r.gaugeVecs[name]
	if !ok {
		v = newGaugeVec(name, labels)
		r.gaugeVecs[name] = v
	}
	return v
}

// HistogramVec returns the named labelled histogram family, creating it
// with the given bounds and label names on first use.
func (r *Registry) HistogramVec(name string, bounds []float64, labels ...string) *HistogramVec {
	r.mu.Lock()
	defer r.mu.Unlock()
	v, ok := r.histVecs[name]
	if !ok {
		v = newHistogramVec(name, bounds, labels)
		r.histVecs[name] = v
	}
	return v
}

// NewCounter returns the named counter in the default registry.
func NewCounter(name string) *Counter { return defaultRegistry.Counter(name) }

// NewGauge returns the named gauge in the default registry.
func NewGauge(name string) *Gauge { return defaultRegistry.Gauge(name) }

// NewFloatCounter returns the named float counter in the default registry.
func NewFloatCounter(name string) *FloatCounter { return defaultRegistry.FloatCounter(name) }

// NewHistogram returns the named histogram in the default registry.
func NewHistogram(name string, bounds []float64) *Histogram {
	return defaultRegistry.Histogram(name, bounds)
}

// NewCounterVec returns the named labelled counter family in the default
// registry.
func NewCounterVec(name string, labels ...string) *CounterVec {
	return defaultRegistry.CounterVec(name, labels...)
}

// NewGaugeVec returns the named labelled gauge family in the default
// registry.
func NewGaugeVec(name string, labels ...string) *GaugeVec {
	return defaultRegistry.GaugeVec(name, labels...)
}

// NewHistogramVec returns the named labelled histogram family in the
// default registry.
func NewHistogramVec(name string, bounds []float64, labels ...string) *HistogramVec {
	return defaultRegistry.HistogramVec(name, bounds, labels...)
}

// Snapshot is a copy of every metric in a registry. Map keys serialize
// in sorted order (encoding/json sorts map keys), so two snapshots of
// identical metric values marshal to identical bytes regardless of when
// or from which goroutine they were taken.
type Snapshot struct {
	Counters      map[string]int64             `json:"counters"`
	Gauges        map[string]float64           `json:"gauges"`
	FloatCounters map[string]float64           `json:"float_counters"`
	Histograms    map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot copies the current value of every registered metric. Each
// individual read is atomic; the snapshot as a whole is a consistent
// map of the registry's names to near-simultaneous values.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		Counters:      make(map[string]int64, len(r.counters)),
		Gauges:        make(map[string]float64, len(r.gauges)),
		FloatCounters: make(map[string]float64, len(r.floats)),
		Histograms:    make(map[string]HistogramSnapshot, len(r.hists)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, f := range r.floats {
		s.FloatCounters[name] = f.Value()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.snapshot()
	}
	// Labelled families flatten to name{l1="v1",...} keys, so the JSON
	// snapshot (and therefore /debug/metrics and manifests) carries
	// them without a schema change.
	for name, v := range r.counterVecs {
		for _, c := range v.core.snapshotChildren() {
			s.Counters[flatName(name, v.core.labels, c.values)] = c.metric.Value()
		}
	}
	for name, v := range r.gaugeVecs {
		for _, c := range v.core.snapshotChildren() {
			s.Gauges[flatName(name, v.core.labels, c.values)] = c.metric.Value()
		}
	}
	for name, v := range r.histVecs {
		for _, c := range v.core.snapshotChildren() {
			s.Histograms[flatName(name, v.core.labels, c.values)] = c.metric.snapshot()
		}
	}
	return s
}

// WriteJSON writes the snapshot as indented JSON.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}
