package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"sort"
	"strings"
	"sync"
	"testing"
)

// Names returns every registered metric name, sorted.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.counters)+len(r.gauges)+len(r.floats)+len(r.hists))
	for n := range r.counters {
		out = append(out, n)
	}
	for n := range r.gauges {
		out = append(out, n)
	}
	for n := range r.floats {
		out = append(out, n)
	}
	for n := range r.hists {
		out = append(out, n)
	}
	for n := range r.counterVecs {
		out = append(out, n)
	}
	for n := range r.gaugeVecs {
		out = append(out, n)
	}
	for n := range r.histVecs {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func TestCounterGaugeFloatCounter(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Errorf("counter = %d, want 42", got)
	}
	g := r.Gauge("g")
	if g.Value() != 0 {
		t.Errorf("unset gauge = %v, want 0", g.Value())
	}
	g.Set(2.5)
	g.Set(-1.25)
	if got := g.Value(); got != -1.25 {
		t.Errorf("gauge = %v, want -1.25", got)
	}
	f := r.FloatCounter("f")
	f.Add(0.5)
	f.Add(1.75)
	if got := f.Value(); got != 2.25 {
		t.Errorf("float counter = %v, want 2.25", got)
	}
}

func TestRegistryGetOrCreateReturnsSameMetric(t *testing.T) {
	r := NewRegistry()
	if r.Counter("x") != r.Counter("x") {
		t.Error("Counter returned distinct instances for one name")
	}
	if r.Gauge("x") != r.Gauge("x") {
		t.Error("Gauge returned distinct instances for one name")
	}
	if r.Histogram("h", []float64{1, 2}) != r.Histogram("h", []float64{9}) {
		t.Error("Histogram returned distinct instances for one name")
	}
}

// TestHistogramBucketBoundaries pins the bucket rule: bucket i counts
// v <= bounds[i], boundary values land in the lower bucket, and values
// above the last bound land in the overflow bucket.
func TestHistogramBucketBoundaries(t *testing.T) {
	h := NewHistogramBuckets([]float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 2, 3, 4, 5} {
		h.Observe(v)
	}
	s := h.snapshot()
	wantCounts := []int64{2, 2, 2, 1}
	if len(s.Counts) != len(wantCounts) {
		t.Fatalf("len(Counts) = %d, want %d", len(s.Counts), len(wantCounts))
	}
	for i, want := range wantCounts {
		if s.Counts[i] != want {
			t.Errorf("bucket %d = %d, want %d", i, s.Counts[i], want)
		}
	}
	if s.Count != 7 {
		t.Errorf("Count = %d, want 7", s.Count)
	}
	if math.Abs(s.Sum-17) > 1e-12 {
		t.Errorf("Sum = %v, want 17", s.Sum)
	}
}

func TestHistogramBadBoundsPanic(t *testing.T) {
	for _, bounds := range [][]float64{nil, {}, {1, 1}, {2, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewHistogramBuckets(%v) did not panic", bounds)
				}
			}()
			NewHistogramBuckets(bounds)
		}()
	}
}

// TestConcurrentCounters hammers one counter, float counter and
// histogram from many goroutines; run under -race (make check does) the
// test also proves the updates are data-race free.
func TestConcurrentCounters(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hits")
	f := r.FloatCounter("busy")
	h := r.Histogram("lat", []float64{1, 10})
	const goroutines, perG = 16, 5000
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				c.Inc()
				f.Add(0.5)
				h.Observe(float64(i % 20))
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != goroutines*perG {
		t.Errorf("counter = %d, want %d", got, goroutines*perG)
	}
	if got := f.Value(); got != goroutines*perG*0.5 {
		t.Errorf("float counter = %v, want %v", got, goroutines*perG*0.5)
	}
	if got := h.snapshot().Count; got != goroutines*perG {
		t.Errorf("histogram count = %d, want %d", got, goroutines*perG)
	}
}

// TestSnapshotDeterminism: snapshots of the same state marshal to
// byte-identical JSON, and a snapshot is a copy — mutating it does not
// reach back into the registry.
func TestSnapshotDeterminism(t *testing.T) {
	r := NewRegistry()
	r.Counter("b.counter").Add(7)
	r.Counter("a.counter").Add(3)
	r.Gauge("z.gauge").Set(1.5)
	r.FloatCounter("m.float").Add(0.25)
	r.Histogram("h.hist", []float64{1, 2}).Observe(1.5)

	j1, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	j2, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1, j2) {
		t.Errorf("snapshots differ:\n%s\n%s", j1, j2)
	}
	// encoding/json sorts map keys, so the names must appear in order.
	if i, j := bytes.Index(j1, []byte("a.counter")), bytes.Index(j1, []byte("b.counter")); i < 0 || j < 0 || i > j {
		t.Errorf("counter names not sorted in %s", j1)
	}

	s := r.Snapshot()
	s.Histograms["h.hist"].Counts[0] = 999
	s.Histograms["h.hist"].Bounds[0] = 999
	if got := r.Snapshot().Histograms["h.hist"].Counts[0]; got == 999 {
		t.Error("mutating a snapshot reached the registry histogram counts")
	}
	if got := r.Snapshot().Histograms["h.hist"].Bounds[0]; got == 999 {
		t.Error("mutating a snapshot reached the registry histogram bounds")
	}
}

func TestNamesSorted(t *testing.T) {
	r := NewRegistry()
	r.Counter("zz")
	r.Gauge("aa")
	r.Histogram("mm", []float64{1})
	r.FloatCounter("bb")
	names := r.Names()
	want := []string{"aa", "bb", "mm", "zz"}
	if len(names) != len(want) {
		t.Fatalf("Names() = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("Names() = %v, want %v", names, want)
		}
	}
}

func TestSnapshotWriteJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Inc()
	var buf bytes.Buffer
	if err := r.Snapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var parsed Snapshot
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("WriteJSON output not valid JSON: %v", err)
	}
	if parsed.Counters["c"] != 1 {
		t.Errorf("round-tripped counter = %d, want 1", parsed.Counters["c"])
	}
	if !strings.Contains(buf.String(), "\n") {
		t.Error("WriteJSON output not indented")
	}
}
