package fleet

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"nodevar/internal/rng"
	"nodevar/internal/stats"
)

// fakeClock is a deterministic, manually advanced time source.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

func testRegistry(maxFleets int, clk *fakeClock) *Registry {
	return NewRegistry(maxFleets, Config{
		Window:        time.Minute,
		WindowBuckets: 6,
		Now:           clk.Now,
	})
}

func batchOf(seq uint64, watts ...float64) []Sample {
	s := make([]Sample, len(watts))
	for i, w := range watts {
		s[i] = Sample{Node: fmt.Sprintf("node-%03d", i), Seq: seq, Watts: w}
	}
	return s
}

func TestValidateBatchTable(t *testing.T) {
	cases := []struct {
		name    string
		samples []Sample
		ok      bool
	}{
		{"valid", []Sample{{Node: "n1", Seq: 1, Watts: 400}}, true},
		{"empty", nil, false},
		{"zero seq", []Sample{{Node: "n1", Seq: 0, Watts: 400}}, false},
		{"nan watts", []Sample{{Node: "n1", Seq: 1, Watts: math.NaN()}}, false},
		{"inf watts", []Sample{{Node: "n1", Seq: 1, Watts: math.Inf(1)}}, false},
		{"negative watts", []Sample{{Node: "n1", Seq: 1, Watts: -3}}, false},
		{"zero watts", []Sample{{Node: "n1", Seq: 1, Watts: 0}}, false},
		{"watts at ceiling", []Sample{{Node: "n1", Seq: 1, Watts: maxWatts}}, true},
		{"watts above ceiling", []Sample{{Node: "n1", Seq: 1, Watts: math.Nextafter(maxWatts, math.Inf(1))}}, false},
		{"overflowing watts", []Sample{{Node: "n1", Seq: 1, Watts: 1e200}}, false},
		{"empty node", []Sample{{Node: "", Seq: 1, Watts: 400}}, false},
		{"bad node char", []Sample{{Node: "n 1", Seq: 1, Watts: 400}}, false},
		{"dup node in batch", []Sample{
			{Node: "n1", Seq: 1, Watts: 400},
			{Node: "n1", Seq: 2, Watts: 401},
		}, false},
		{"valid mixed", []Sample{
			{Node: "rack-1:n1.a_b", Seq: 7, Watts: 123.4},
			{Node: "rack-1:n2", Seq: 3, Watts: 99},
		}, true},
	}
	for _, tc := range cases {
		err := ValidateBatch(tc.samples)
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: error expected, got nil", tc.name)
		}
	}
}

func TestIngestIdempotentSequences(t *testing.T) {
	clk := newFakeClock()
	r := testRegistry(4, clk)

	batch := batchOf(1, 400, 410, 420)
	res, err := r.Ingest("prod", batch)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted != 3 || res.Duplicates != 0 || res.Nodes != 3 || res.Samples != 3 {
		t.Fatalf("first batch result %+v", res)
	}
	want := r.Get("prod").Snapshot(0.95)

	// Retrying the identical batch is a no-op for every statistic.
	res, err = r.Ingest("prod", batch)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted != 0 || res.Duplicates != 3 || res.Samples != 3 {
		t.Fatalf("retried batch result %+v", res)
	}
	got := r.Get("prod").Snapshot(0.95)
	if got.Samples != want.Samples || got.Mean != want.Mean || got.StdDev != want.StdDev {
		t.Fatalf("retry perturbed stats: %+v vs %+v", got, want)
	}
	if got.Duplicates != 3 {
		t.Fatalf("duplicate count %d, want 3", got.Duplicates)
	}

	// A stale sequence for one node is skipped; newer ones apply.
	res, err = r.Ingest("prod", []Sample{
		{Node: "node-000", Seq: 1, Watts: 999}, // stale
		{Node: "node-001", Seq: 2, Watts: 415}, // fresh
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted != 1 || res.Duplicates != 1 || res.Samples != 4 {
		t.Fatalf("mixed batch result %+v", res)
	}
	acc, ok := r.Get("prod").NodeAccumulator("node-000")
	if !ok || acc.N() != 1 || acc.Mean() != 400 {
		t.Fatalf("stale sample leaked into node-000: n=%d mean=%g", acc.N(), acc.Mean())
	}
}

func TestSnapshotMatchesBatchStats(t *testing.T) {
	clk := newFakeClock()
	r := testRegistry(4, clk)
	rnd := rng.New(11)
	values := make([]float64, 200)
	for i := range values {
		values[i] = rnd.Normal(420, 9)
		if values[i] <= 0 {
			values[i] = 1
		}
	}
	for i, v := range values {
		if _, err := r.Ingest("f", []Sample{{Node: fmt.Sprintf("n%03d", i), Seq: 1, Watts: v}}); err != nil {
			t.Fatal(err)
		}
	}
	st := r.Get("f").Snapshot(0.95)
	mean, sd := stats.MeanStdDev(values)
	if math.Float64bits(st.Mean) != math.Float64bits(mean) {
		t.Fatalf("snapshot mean %v, batch mean %v", st.Mean, mean)
	}
	if math.Float64bits(st.StdDev) != math.Float64bits(sd) {
		t.Fatalf("snapshot sd %v, batch sd %v", st.StdDev, sd)
	}
	ci := stats.MeanCI(values, stats.CIOptions{Confidence: 0.95})
	if st.CI == nil || *st.CI != ci {
		t.Fatalf("snapshot CI %+v, batch CI %+v", st.CI, ci)
	}
	if st.Min != stats.Min(values) || st.Max != stats.Max(values) {
		t.Fatalf("snapshot extremes [%g,%g]", st.Min, st.Max)
	}
	for name, q := range snapshotQuantiles {
		est := st.Quantiles[name]
		ref := stats.Quantile(values, q)
		if rel := math.Abs(est-ref) / ref; rel > 2*SketchAlpha {
			t.Fatalf("%s estimate %g vs batch %g (rel %g)", name, est, ref, rel)
		}
	}
}

func TestWindowExpiry(t *testing.T) {
	clk := newFakeClock()
	r := testRegistry(4, clk) // 1m window, 6 buckets of 10s

	if _, err := r.Ingest("w", batchOf(1, 100, 110, 120)); err != nil {
		t.Fatal(err)
	}
	st := r.Get("w").Snapshot(0.95)
	if st.Window == nil || st.Window.Samples != 3 {
		t.Fatalf("fresh window %+v", st.Window)
	}

	// Half a window later the old samples are still visible...
	clk.Advance(30 * time.Second)
	if _, err := r.Ingest("w", batchOf(2, 200, 210, 220)); err != nil {
		t.Fatal(err)
	}
	st = r.Get("w").Snapshot(0.95)
	if st.Window == nil || st.Window.Samples != 6 {
		t.Fatalf("mid window %+v", st.Window)
	}

	// ...but after the window passes, only recent samples remain, while
	// cumulative stats keep everything.
	clk.Advance(45 * time.Second)
	st = r.Get("w").Snapshot(0.95)
	if st.Window == nil || st.Window.Samples != 3 {
		t.Fatalf("aged window %+v", st.Window)
	}
	if got, want := st.Window.Mean, 210.0; math.Abs(got-want) > 1e-9 {
		t.Fatalf("aged window mean %g, want %g", got, want)
	}
	if st.Samples != 6 {
		t.Fatalf("cumulative samples %d, want 6", st.Samples)
	}

	// Far past the window there is no windowed view at all.
	clk.Advance(10 * time.Minute)
	st = r.Get("w").Snapshot(0.95)
	if st.Window != nil {
		t.Fatalf("expired window still present: %+v", st.Window)
	}
}

func TestRegistryEvictsLeastRecentlyIngested(t *testing.T) {
	clk := newFakeClock()
	r := testRegistry(2, clk)

	if _, err := r.Ingest("old", batchOf(1, 100)); err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Second)
	if _, err := r.Ingest("fresh", batchOf(1, 100)); err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Second)
	if _, err := r.Ingest("new", batchOf(1, 100)); err != nil {
		t.Fatal(err)
	}
	if r.Len() != 2 {
		t.Fatalf("registry size %d, want 2", r.Len())
	}
	if r.Get("old") != nil {
		t.Fatal("least-recently-ingested fleet survived eviction")
	}
	if r.Get("fresh") == nil || r.Get("new") == nil {
		t.Fatal("recently ingested fleets were evicted")
	}
}

func TestFleetNodeCapacity(t *testing.T) {
	clk := newFakeClock()
	r := NewRegistry(2, Config{MaxNodes: 2, Now: clk.Now})
	if _, err := r.Ingest("cap", batchOf(1, 100, 110)); err != nil {
		t.Fatal(err)
	}
	_, err := r.Ingest("cap", []Sample{{Node: "extra", Seq: 1, Watts: 120}})
	if !errors.Is(err, ErrFleetFull) {
		t.Fatalf("over-capacity ingest error %v, want ErrFleetFull", err)
	}
	// The rejected batch must not have touched anything.
	st := r.Get("cap").Snapshot(0.95)
	if st.Nodes != 2 || st.Samples != 2 {
		t.Fatalf("rejected batch mutated fleet: %+v", st)
	}
}

func TestOutliersFlagsPlantedNode(t *testing.T) {
	clk := newFakeClock()
	r := testRegistry(4, clk)
	rnd := rng.New(5)
	for i := 0; i < 50; i++ {
		w := rnd.Normal(400, 2)
		if _, err := r.Ingest("o", []Sample{{Node: fmt.Sprintf("n%02d", i), Seq: 1, Watts: w}}); err != nil {
			t.Fatal(err)
		}
	}
	// Plant one node far outside the pack (the paper's Figure-4 VID node).
	if _, err := r.Ingest("o", []Sample{{Node: "hot", Seq: 1, Watts: 460}}); err != nil {
		t.Fatal(err)
	}
	rep := r.Get("o").Outliers(3)
	if rep.Degraded {
		t.Fatalf("unexpected degraded report: %s", rep.Note)
	}
	if len(rep.Outliers) == 0 || rep.Outliers[0].Node != "hot" {
		t.Fatalf("planted outlier not flagged first: %+v", rep.Outliers)
	}
	if rep.Outliers[0].Z < 3 {
		t.Fatalf("planted outlier z=%g, want >= 3", rep.Outliers[0].Z)
	}

	// Degraded cases: one node, then zero variance.
	r2 := testRegistry(4, clk)
	if _, err := r2.Ingest("one", batchOf(1, 100)); err != nil {
		t.Fatal(err)
	}
	if rep := r2.Get("one").Outliers(3); !rep.Degraded {
		t.Fatal("single-node report not degraded")
	}
	if _, err := r2.Ingest("flat", batchOf(1, 100, 100, 100)); err != nil {
		t.Fatal(err)
	}
	if rep := r2.Get("flat").Outliers(3); !rep.Degraded {
		t.Fatal("zero-variance report not degraded")
	}
}

// TestFleetConcurrentIngestAndSnapshot hammers one fleet from several
// writers with interleaved readers; under -race this is the package's
// torn-snapshot check. Snapshots must always be internally consistent:
// mean within [min, max], sample counts monotone.
func TestFleetConcurrentIngestAndSnapshot(t *testing.T) {
	clk := newFakeClock()
	r := testRegistry(4, clk)
	const writers, rounds = 8, 60

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rnd := rng.New(uint64(w + 1))
			for i := 1; i <= rounds; i++ {
				batch := []Sample{{
					Node:  fmt.Sprintf("w%02d-n%02d", w, i%5),
					Seq:   uint64(i),
					Watts: 380 + 40*rnd.Float64(),
				}}
				if _, err := r.Ingest("soak", batch); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	var lastSamples uint64
	for alive := true; alive; {
		select {
		case <-done:
			alive = false
		default:
		}
		if f := r.Get("soak"); f != nil {
			st := f.Snapshot(0.95)
			if st.Samples < lastSamples {
				t.Fatalf("sample count went backwards: %d -> %d", lastSamples, st.Samples)
			}
			lastSamples = st.Samples
			if st.Samples > 0 && (st.Mean < st.Min || st.Mean > st.Max) {
				t.Fatalf("torn snapshot: mean %g outside [%g, %g]", st.Mean, st.Min, st.Max)
			}
			f.Outliers(2)
		}
	}
	st := r.Get("soak").Snapshot(0.95)
	if st.Samples == 0 || st.Duplicates != 0 {
		t.Fatalf("final state %+v", st)
	}
}

func TestPlanInputs(t *testing.T) {
	clk := newFakeClock()
	r := testRegistry(4, clk)
	values := []float64{400, 410, 420, 430}
	if _, err := r.Ingest("p", batchOf(1, values...)); err != nil {
		t.Fatal(err)
	}
	nodes, samples, mean, sd := r.Get("p").PlanInputs()
	wantMean, wantSD := stats.MeanStdDev(values)
	if nodes != 4 || samples != 4 || mean != wantMean || sd != wantSD {
		t.Fatalf("PlanInputs = (%d, %d, %g, %g), want (4, 4, %g, %g)",
			nodes, samples, mean, sd, wantMean, wantSD)
	}
}
