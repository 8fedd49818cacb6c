package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// The vec types add a small-cardinality label dimension (endpoint,
// status class, cache outcome) over the lock-cheap scalar metrics.
// Children are kept in a copy-on-write map behind an atomic pointer:
// looking up an existing child takes no lock, and the returned handle is
// the same atomic Counter/Gauge/Histogram as everywhere else, so hot
// paths resolve their label combination once (at route registration, or
// per status class into a fixed array) and then pay only the scalar's
// atomic add per update. Creating a new child takes a mutex and rebuilds
// the map — a bounded, startup-time cost because label sets are fixed
// and tiny by design.

// labelKey builds the child map key. Single-label vecs use the value
// directly so even an unresolved With on the hot path stays
// allocation-free once the child exists.
func labelKey(values []string) string {
	if len(values) == 1 {
		return values[0]
	}
	return strings.Join(values, "\x1f")
}

// vecChild pairs one child's label values with its metric.
type vecChild[M any] struct {
	values []string
	metric M
}

// vecCore is the shared copy-on-write machinery of every vec type.
type vecCore[M any] struct {
	name   string
	labels []string

	mu       sync.Mutex
	children atomic.Pointer[map[string]*vecChild[M]]
}

func newVecCore[M any](name string, labels []string) *vecCore[M] {
	if len(labels) == 0 {
		panic("obs: a labelled metric needs at least one label name")
	}
	return &vecCore[M]{name: name, labels: labels}
}

// with returns the child for values, creating it with make on first use.
// The hit path is one atomic load and a map lookup.
func (v *vecCore[M]) with(values []string, make func() M) M {
	if len(values) != len(v.labels) {
		panic(fmt.Sprintf("obs: metric %s wants %d label values, got %d", v.name, len(v.labels), len(values)))
	}
	key := labelKey(values)
	if m := v.children.Load(); m != nil {
		if c, ok := (*m)[key]; ok {
			return c.metric
		}
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	old := v.children.Load()
	if old != nil {
		if c, ok := (*old)[key]; ok {
			return c.metric
		}
	}
	next := map[string]*vecChild[M]{}
	if old != nil {
		for k, c := range *old {
			next[k] = c
		}
	}
	child := &vecChild[M]{values: append([]string(nil), values...), metric: make()}
	next[key] = child
	v.children.Store(&next)
	return child.metric
}

// snapshotChildren returns the children sorted by key for deterministic
// exposition.
func (v *vecCore[M]) snapshotChildren() []*vecChild[M] {
	m := v.children.Load()
	if m == nil {
		return nil
	}
	keys := make([]string, 0, len(*m))
	for k := range *m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*vecChild[M], 0, len(keys))
	for _, k := range keys {
		out = append(out, (*m)[k])
	}
	return out
}

// CounterVec is a family of Counters distinguished by label values.
type CounterVec struct {
	core *vecCore[*Counter]
}

func newCounterVec(name string, labels []string) *CounterVec {
	return &CounterVec{core: newVecCore[*Counter](name, labels)}
}

// With returns the counter for the given label values, creating it on
// first use. Resolve once and keep the handle on hot paths; the handle's
// Inc/Add are the usual single atomic adds.
func (v *CounterVec) With(values ...string) *Counter {
	return v.core.with(values, func() *Counter { return &Counter{} })
}

// GaugeVec is a family of Gauges distinguished by label values.
type GaugeVec struct {
	core *vecCore[*Gauge]
}

func newGaugeVec(name string, labels []string) *GaugeVec {
	return &GaugeVec{core: newVecCore[*Gauge](name, labels)}
}

// With returns the gauge for the given label values, creating it on
// first use.
func (v *GaugeVec) With(values ...string) *Gauge {
	return v.core.with(values, func() *Gauge { return &Gauge{} })
}

// HistogramVec is a family of fixed-bucket Histograms sharing one bounds
// slice, distinguished by label values.
type HistogramVec struct {
	core   *vecCore[*Histogram]
	bounds []float64
}

func newHistogramVec(name string, bounds []float64, labels []string) *HistogramVec {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	// Validate the bounds once, eagerly, rather than on first With.
	NewHistogramBuckets(b)
	return &HistogramVec{core: newVecCore[*Histogram](name, labels), bounds: b}
}

// With returns the histogram for the given label values, creating it on
// first use with the vec's shared bounds.
func (v *HistogramVec) With(values ...string) *Histogram {
	return v.core.with(values, func() *Histogram { return NewHistogramBuckets(v.bounds) })
}

// flatName spells one child as name{l1="v1",l2="v2"} — the key used in
// JSON snapshots so labelled metrics ride along in /debug/metrics and
// manifests without schema changes.
func flatName(name string, labels, values []string) string {
	var sb strings.Builder
	sb.WriteString(name)
	sb.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(l)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabelValue(values[i]))
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
	return sb.String()
}
