// Package fleet holds nodevard's live streaming state: named fleets of
// nodes whose per-node power samples arrive continuously over
// /v1/ingest instead of coming from a static preset dataset.
//
// Each fleet maintains, in fixed memory per node:
//
//   - per-node cumulative moments (Welford Accumulator, applied in
//     arrival order) plus idempotent sequence tracking, so retried
//     batches never double-count;
//   - fleet-level cumulative moments, also a sequential Welford pass in
//     arrival order — which makes a full replay of a static dataset
//     bit-identical to the batch internal/stats answers, the property
//     the replaytest harness locks in;
//   - a fixed-memory streaming quantile sketch (stats.QuantileSketch,
//     relative error α);
//   - a rolling window of time-bucketed exact mergeable moments
//     (stats.StreamMoments) and sketches, merged at read time, so
//     recent-σ/μ/CI answers reflect only the configured window.
//
// All mutation goes through Registry.Ingest, which validates a whole
// batch before applying any of it: a rejected batch leaves fleet state
// untouched.
package fleet

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"nodevar/internal/stats"
)

// Defaults for Config fields left zero.
const (
	DefaultWindow        = 5 * time.Minute
	DefaultWindowBuckets = 30
	DefaultMaxNodes      = 65536
	maxNameLen           = 128
)

// maxWatts is the largest per-node sample ingestion accepts: no node
// draws a megawatt, and the ceiling keeps every fleet moment finite (two
// samples near 1e200 W overflow the sum of squares into NaN).
const maxWatts = 1e6

// SketchAlpha is the relative accuracy of every fleet's quantile
// sketches.
const SketchAlpha = 0.005

// ErrFleetFull is returned when a batch would push a fleet past its
// distinct-node capacity.
var ErrFleetFull = errors.New("fleet: node capacity reached")

// ErrEmptyBatch is returned for a zero-length sample batch.
var ErrEmptyBatch = errors.New("fleet: empty sample batch")

// Sample is one per-node power observation. Seq is the node's
// monotonically increasing sequence number; a sample whose Seq does not
// exceed the node's last applied sequence is a duplicate and is skipped,
// which makes batch retries idempotent.
type Sample struct {
	Node  string
	Seq   uint64
	Watts float64
}

// Config parameterizes a fleet. The zero value is usable: every field
// has a production default.
type Config struct {
	// Window is the rolling-statistics span. Default 5m.
	Window time.Duration
	// WindowBuckets is the window's time granularity. Default 30.
	WindowBuckets int
	// MaxNodes caps distinct nodes per fleet. Default 65536.
	MaxNodes int
	// Now supplies the clock; tests inject deterministic time. Default
	// time.Now.
	Now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.Window <= 0 {
		c.Window = DefaultWindow
	}
	if c.WindowBuckets <= 0 {
		c.WindowBuckets = DefaultWindowBuckets
	}
	if c.MaxNodes <= 0 {
		c.MaxNodes = DefaultMaxNodes
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// ValidName reports whether s is a legal fleet or node identifier:
// non-empty, at most 128 bytes, drawn from [A-Za-z0-9._:-].
func ValidName(s string) error {
	if s == "" {
		return errors.New("fleet: empty name")
	}
	if len(s) > maxNameLen {
		return fmt.Errorf("fleet: name longer than %d bytes", maxNameLen)
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == ':', c == '-':
		default:
			return fmt.Errorf("fleet: name byte %d (%q) outside [A-Za-z0-9._:-]", i, c)
		}
	}
	return nil
}

// ValidateBatch checks a sample batch without touching any state:
// non-empty, every node name legal and unique within the batch, every
// sequence positive, every power value positive and at most maxWatts
// (1 MW per node). Ingestion
// validates before applying, so an invalid batch can never leave a fleet
// partially updated.
func ValidateBatch(samples []Sample) error {
	if len(samples) == 0 {
		return ErrEmptyBatch
	}
	seen := make(map[string]struct{}, len(samples))
	for i, s := range samples {
		if err := ValidName(s.Node); err != nil {
			return fmt.Errorf("sample %d: %w", i, err)
		}
		if s.Seq == 0 {
			return fmt.Errorf("sample %d (%s): sequence must be >= 1", i, s.Node)
		}
		if !(s.Watts > 0 && s.Watts <= maxWatts) { // false for NaN and ±Inf too
			return fmt.Errorf("sample %d (%s): watts must be in (0, %g], got %v", i, s.Node, maxWatts, s.Watts)
		}
		if _, dup := seen[s.Node]; dup {
			return fmt.Errorf("sample %d: duplicate node %q in batch (one sample per node per batch)", i, s.Node)
		}
		seen[s.Node] = struct{}{}
	}
	return nil
}

// nodeState is one node's live state.
type nodeState struct {
	acc      stats.Accumulator // cumulative, arrival order
	lastSeq  uint64
	last     float64
	lastTime time.Time
}

// winBucket is one time slice of the rolling window.
type winBucket struct {
	epoch  int64 // bucket-duration index; -1 means never used
	mom    stats.StreamMoments
	sketch *stats.QuantileSketch
}

// Fleet is one named fleet's live state. Create via Registry.
type Fleet struct {
	id  string
	cfg Config

	mu         sync.RWMutex
	nodes      map[string]*nodeState
	cum        stats.Accumulator
	sketch     *stats.QuantileSketch
	buckets    []winBucket
	bucketDur  time.Duration
	samples    uint64
	duplicates uint64
	lastIngest time.Time

	// Lock-free mirrors for the registry's eviction scan and gauges.
	lastNano  atomic.Int64
	nodeCount atomic.Int64
}

func newFleet(id string, cfg Config) *Fleet {
	f := &Fleet{
		id:        id,
		cfg:       cfg,
		nodes:     make(map[string]*nodeState),
		sketch:    stats.NewQuantileSketch(SketchAlpha, stats.DefaultSketchBins),
		buckets:   make([]winBucket, cfg.WindowBuckets),
		bucketDur: cfg.Window / time.Duration(cfg.WindowBuckets),
	}
	if f.bucketDur <= 0 {
		f.bucketDur = time.Nanosecond
	}
	for i := range f.buckets {
		f.buckets[i].epoch = -1
	}
	return f
}

// ID returns the fleet's name.
func (f *Fleet) ID() string { return f.id }

// IngestResult reports what one batch did.
type IngestResult struct {
	// Accepted is the number of samples applied from this batch.
	Accepted int
	// Duplicates is the number skipped because their sequence number was
	// not newer than the node's last applied one.
	Duplicates int
	// NewNodes is how many previously unseen nodes the batch introduced.
	NewNodes int
	// Nodes and Samples are the fleet totals after the batch.
	Nodes   int
	Samples uint64
}

// ingest applies a pre-validated batch under the fleet lock. The
// capacity check runs before any mutation so a rejected batch leaves the
// fleet untouched.
func (f *Fleet) ingest(samples []Sample, now time.Time) (IngestResult, error) {
	f.mu.Lock()
	defer f.mu.Unlock()

	newNodes := 0
	for _, s := range samples {
		if _, ok := f.nodes[s.Node]; !ok {
			newNodes++ // batch nodes are unique (ValidateBatch), so this is exact
		}
	}
	if len(f.nodes)+newNodes > f.cfg.MaxNodes {
		return IngestResult{}, fmt.Errorf("%w: %d nodes + %d new exceeds cap %d",
			ErrFleetFull, len(f.nodes), newNodes, f.cfg.MaxNodes)
	}

	res := IngestResult{NewNodes: newNodes}
	epoch := now.UnixNano() / int64(f.bucketDur)
	b := &f.buckets[int(((epoch%int64(len(f.buckets)))+int64(len(f.buckets)))%int64(len(f.buckets)))]
	if b.epoch != epoch {
		b.epoch = epoch
		b.mom = stats.StreamMoments{}
		b.sketch = stats.NewQuantileSketch(SketchAlpha, stats.DefaultSketchBins)
	}

	for _, s := range samples {
		n, ok := f.nodes[s.Node]
		if !ok {
			n = &nodeState{}
			f.nodes[s.Node] = n
		}
		if s.Seq <= n.lastSeq {
			res.Duplicates++
			f.duplicates++
			continue
		}
		n.lastSeq = s.Seq
		n.last = s.Watts
		n.lastTime = now
		n.acc.Add(s.Watts)
		f.cum.Add(s.Watts)
		f.sketch.Add(s.Watts)
		b.mom.Add(s.Watts)
		b.sketch.Add(s.Watts)
		f.samples++
		res.Accepted++
	}
	f.lastIngest = now
	f.lastNano.Store(now.UnixNano())
	f.nodeCount.Store(int64(len(f.nodes)))
	res.Nodes = len(f.nodes)
	res.Samples = f.samples
	return res, nil
}

// snapshotQuantiles are the probabilities served in stats snapshots.
var snapshotQuantiles = map[string]float64{
	"p01": 0.01, "p05": 0.05, "p25": 0.25, "p50": 0.50,
	"p75": 0.75, "p90": 0.90, "p95": 0.95, "p99": 0.99,
}

// WindowStats summarizes the rolling window at snapshot time.
type WindowStats struct {
	Span      time.Duration
	Samples   int
	Mean      float64
	StdDev    float64 // 0 when Samples < 2
	CI        *stats.Interval
	Quantiles map[string]float64
}

// Stats is a consistent point-in-time view of one fleet, taken under a
// single read lock so counts, moments and quantiles all describe the
// same sample set (no torn snapshots).
type Stats struct {
	Fleet      string
	Nodes      int
	Samples    uint64
	Duplicates uint64
	Mean       float64
	StdDev     float64 // 0 when Samples < 2
	CV         float64 // 0 when undefined
	Min        float64
	Max        float64
	CI         *stats.Interval
	Quantiles  map[string]float64
	Window     *WindowStats
	LastIngest time.Time
}

// Snapshot captures the fleet's cumulative and windowed statistics at
// the given confidence level. Fleets always hold at least one sample
// (they are created by a successful ingest), so Mean/Min/Max are always
// defined; StdDev, CV and CI require two.
func (f *Fleet) Snapshot(confidence float64) Stats {
	now := f.cfg.Now()
	f.mu.RLock()
	defer f.mu.RUnlock()

	acc := f.cum
	st := Stats{
		Fleet:      f.id,
		Nodes:      len(f.nodes),
		Samples:    f.samples,
		Duplicates: f.duplicates,
		LastIngest: f.lastIngest,
	}
	if acc.N() == 0 {
		return st
	}
	st.Mean = acc.Mean()
	st.Min = acc.Min()
	st.Max = acc.Max()
	if acc.N() >= 2 {
		st.StdDev = acc.StdDev()
		if st.Mean != 0 {
			st.CV = st.StdDev / st.Mean
		}
		ci := stats.MeanCIFromStats(st.Mean, st.StdDev, acc.N(), stats.CIOptions{Confidence: confidence})
		st.CI = &ci
	}
	st.Quantiles = make(map[string]float64, len(snapshotQuantiles))
	for name, q := range snapshotQuantiles {
		st.Quantiles[name] = f.sketch.Quantile(q)
	}
	st.Window = f.windowLocked(now, confidence)
	return st
}

// windowLocked merges the live window buckets; the caller holds at least
// a read lock. Returns nil when the window holds no samples.
func (f *Fleet) windowLocked(now time.Time, confidence float64) *WindowStats {
	curEpoch := now.UnixNano() / int64(f.bucketDur)
	oldest := curEpoch - int64(len(f.buckets)) + 1
	var mom stats.StreamMoments
	sketch := stats.NewQuantileSketch(SketchAlpha, stats.DefaultSketchBins)
	for i := range f.buckets {
		b := &f.buckets[i]
		if b.epoch >= oldest && b.epoch <= curEpoch && b.mom.N() > 0 {
			mom.Merge(&b.mom)
			sketch.Merge(b.sketch)
		}
	}
	if mom.N() == 0 {
		return nil
	}
	w := &WindowStats{
		Span:    f.cfg.Window,
		Samples: mom.N(),
		Mean:    mom.Mean(),
	}
	if mom.N() >= 2 {
		w.StdDev = mom.StdDev()
		ci := stats.MeanCIFromStats(w.Mean, w.StdDev, mom.N(), stats.CIOptions{Confidence: confidence})
		w.CI = &ci
	}
	w.Quantiles = make(map[string]float64, len(snapshotQuantiles))
	for name, q := range snapshotQuantiles {
		w.Quantiles[name] = sketch.Quantile(q)
	}
	return w
}

// PlanInputs returns the live inputs a sample-size recommendation needs:
// node count, total samples, mean and standard deviation of all samples
// seen. StdDev is 0 when fewer than two samples exist.
func (f *Fleet) PlanInputs() (nodes int, samples uint64, mean, sd float64) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	acc := f.cum
	nodes, samples = len(f.nodes), f.samples
	if acc.N() >= 1 {
		mean = acc.Mean()
	}
	if acc.N() >= 2 {
		sd = acc.StdDev()
	}
	return nodes, samples, mean, sd
}

// Outlier is one flagged node in the spirit of the paper's Figure 4
// VID/fan-speed case study: a node whose mean power signature deviates
// from the fleet's distribution of node means.
type Outlier struct {
	Node    string
	Samples int
	Mean    float64
	StdDev  float64 // within-node; 0 when Samples < 2
	Last    float64
	Z       float64 // (node mean − mean of node means) / sd of node means
}

// OutlierReport is the result of an outlier scan.
type OutlierReport struct {
	Fleet       string
	Nodes       int
	MeanOfMeans float64
	StdOfMeans  float64
	Threshold   float64
	// Degraded marks a scan that could not compute z-scores (fewer than
	// two nodes, or zero variance across node means); Note says why.
	Degraded bool
	Note     string
	Outliers []Outlier
}

// Outliers flags nodes whose mean power is at least threshold standard
// deviations from the mean of node means. Node iteration is in sorted
// name order so the scan is deterministic; results are ordered by |z|
// descending, ties by name.
func (f *Fleet) Outliers(threshold float64) OutlierReport {
	f.mu.RLock()
	defer f.mu.RUnlock()

	rep := OutlierReport{
		Fleet:     f.id,
		Nodes:     len(f.nodes),
		Threshold: threshold,
		Outliers:  []Outlier{},
	}
	if len(f.nodes) < 2 {
		rep.Degraded = true
		rep.Note = "outlier detection needs at least 2 nodes"
		return rep
	}
	names := make([]string, 0, len(f.nodes))
	for name := range f.nodes {
		names = append(names, name)
	}
	sort.Strings(names)
	var means stats.Accumulator
	for _, name := range names {
		means.Add(f.nodes[name].acc.Mean())
	}
	rep.MeanOfMeans = means.Mean()
	rep.StdOfMeans = means.StdDev()
	if rep.StdOfMeans == 0 {
		rep.Degraded = true
		rep.Note = "zero variance across node means; z-scores undefined"
		return rep
	}
	for _, name := range names {
		n := f.nodes[name]
		z := (n.acc.Mean() - rep.MeanOfMeans) / rep.StdOfMeans
		if math.Abs(z) < threshold {
			continue
		}
		o := Outlier{
			Node:    name,
			Samples: n.acc.N(),
			Mean:    n.acc.Mean(),
			Last:    n.last,
			Z:       z,
		}
		if n.acc.N() >= 2 {
			o.StdDev = n.acc.StdDev()
		}
		rep.Outliers = append(rep.Outliers, o)
	}
	sort.Slice(rep.Outliers, func(i, j int) bool {
		zi, zj := math.Abs(rep.Outliers[i].Z), math.Abs(rep.Outliers[j].Z)
		if zi != zj {
			return zi > zj
		}
		return rep.Outliers[i].Node < rep.Outliers[j].Node
	})
	return rep
}

// NodeAccumulator returns a copy of one node's cumulative accumulator
// (for tests and equivalence harnesses) and whether the node exists.
func (f *Fleet) NodeAccumulator(node string) (stats.Accumulator, bool) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	n, ok := f.nodes[node]
	if !ok {
		return stats.Accumulator{}, false
	}
	return n.acc, true
}
