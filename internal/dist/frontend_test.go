package dist

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nodevar/internal/sampling"
)

// LiveWorkers reports how many workers are currently believed healthy.
func (f *Frontend) LiveWorkers() int { return f.reg.liveCount() }

func assertSamePoints(t *testing.T, got, want []sampling.CoveragePoint, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d points, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].SampleSize != want[i].SampleSize || got[i].Replicates != want[i].Replicates ||
			math.Float64bits(got[i].Level) != math.Float64bits(want[i].Level) ||
			math.Float64bits(got[i].Coverage) != math.Float64bits(want[i].Coverage) ||
			math.Float64bits(got[i].MeanRelWidth) != math.Float64bits(want[i].MeanRelWidth) {
			t.Fatalf("%s: point %d differs: %+v != %+v", label, i, got[i], want[i])
		}
	}
}

func TestFrontendRoutesToRingHome(t *testing.T) {
	var hits [2]atomic.Int64
	var servers [2]*httptest.Server
	for i := range servers {
		i := i
		w := NewWorker(WorkerConfig{}).Handler()
		servers[i] = httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			if r.URL.Path == PathCoverage {
				hits[i].Add(1)
			}
			w.ServeHTTP(rw, r)
		}))
		defer servers[i].Close()
	}

	f, err := NewFrontend(Config{Workers: []string{servers[0].URL, servers[1].URL}})
	if err != nil {
		t.Fatal(err)
	}
	cfg := testStudyConfig(31)
	want, err := sampling.CoverageStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, degraded, err := f.Coverage(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if degraded {
		t.Fatal("degraded with a healthy fleet")
	}
	assertSamePoints(t, got, want, "remote")

	home := f.reg.sequence(JobKey(cfg.Seed, cfg.Fingerprint()))[0]
	for i, srv := range servers {
		wantHits := int64(0)
		if srv.URL == home {
			wantHits = 1
		}
		if hits[i].Load() != wantHits {
			t.Fatalf("worker %d (%s): %d job hits, want %d (home=%s)", i, srv.URL, hits[i].Load(), wantHits, home)
		}
	}
}

// TestFrontendFailoverMidStudy is the heart of the package: the home
// worker's connection is severed after its first streamed checkpoint,
// and the job must finish on the survivor — resumed, not restarted, and
// Float64bits-identical to an uninterrupted local run.
func TestFrontendFailoverMidStudy(t *testing.T) {
	cfg := testStudyConfig(47)
	cfg.Replicates = 800
	want, err := sampling.CoverageStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Both workers stream slowly enough that the kill lands mid-study.
	mk := func() *httptest.Server {
		return httptest.NewServer(NewWorker(WorkerConfig{ChunkDelay: 20 * time.Millisecond}).Handler())
	}
	a, b := mk(), mk()
	defer a.Close()
	defer b.Close()

	// Record whether the re-dispatched job carried resume state.
	var resumedJob atomic.Bool
	recorder := func(inner http.Handler, srv *httptest.Server) http.Handler {
		return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			if r.URL.Path == PathCoverage {
				body, _ := io.ReadAll(r.Body)
				r.Body = io.NopCloser(bytes.NewReader(body))
				if bytes.Contains(body, []byte(`"resume":`)) {
					resumedJob.Store(true)
				}
			}
			inner.ServeHTTP(rw, r)
		})
	}
	// Rewrap: servers already built; swap handlers in place.
	a.Config.Handler = recorder(a.Config.Handler, a)
	b.Config.Handler = recorder(b.Config.Handler, b)

	byURL := map[string]*httptest.Server{a.URL: a, b.URL: b}
	var once sync.Once
	var killed atomic.Value // string: which URL was killed
	var frameWorkers []string

	var f *Frontend
	f, err = NewFrontend(Config{
		Workers:         []string{a.URL, b.URL},
		CheckpointEvery: 1,
		OnFrame: func(worker string, fr Frame) {
			frameWorkers = append(frameWorkers, worker)
			if fr.Type == FrameCheckpoint {
				once.Do(func() {
					killed.Store(worker)
					// Sever every connection to the streaming worker: the
					// frontend sees a broken stream, exactly as if the process
					// was SIGKILLed.
					byURL[worker].CloseClientConnections()
				})
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	got, degraded, err := f.Coverage(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if degraded {
		t.Fatal("failover degraded to local; want completion on the survivor")
	}
	assertSamePoints(t, got, want, "failed-over")

	dead, _ := killed.Load().(string)
	if dead == "" {
		t.Fatal("no worker was ever killed — no checkpoint frame seen")
	}
	if f.reg.live(dead) {
		t.Fatalf("killed worker %s still marked live", dead)
	}
	if !resumedJob.Load() {
		t.Fatal("re-dispatched job carried no resume envelope")
	}
	// The last frame (the result) must come from the survivor.
	if last := frameWorkers[len(frameWorkers)-1]; last == dead {
		t.Fatalf("result frame came from the killed worker %s", last)
	}
}

func TestFrontendDegradesToLocalWhenFleetDead(t *testing.T) {
	// Workers that are already gone: connection refused on every dial.
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()

	f, err := NewFrontend(Config{Workers: []string{deadURL}})
	if err != nil {
		t.Fatal(err)
	}
	cfg := testStudyConfig(59)
	want, err := sampling.CoverageStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, degraded, err := f.Coverage(context.Background(), cfg)
	if err != nil {
		t.Fatalf("degraded mode must still answer: %v", err)
	}
	if !degraded {
		t.Fatal("dead fleet did not set the degraded flag")
	}
	assertSamePoints(t, got, want, "degraded-local")
	if n := f.LiveWorkers(); n != 0 {
		t.Fatalf("LiveWorkers = %d after total fleet loss", n)
	}

	// Second study with the fleet still dead: the worker is marked down
	// now, so the frontend skips the dial entirely and serves locally.
	cfg2 := testStudyConfig(61)
	want2, err := sampling.CoverageStudy(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	got2, degraded2, err := f.Coverage(context.Background(), cfg2)
	if err != nil || !degraded2 {
		t.Fatalf("second degraded study: err=%v degraded=%v", err, degraded2)
	}
	assertSamePoints(t, got2, want2, "degraded-local-2")
}

func TestFrontendRejectionDoesNotFailOver(t *testing.T) {
	var rejects, other atomic.Int64
	reject := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		rejects.Add(1)
		http.Error(rw, `{"error":"nope"}`, http.StatusBadRequest)
	}))
	defer reject.Close()
	second := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		other.Add(1)
		http.Error(rw, `{"error":"nope"}`, http.StatusBadRequest)
	}))
	defer second.Close()

	f, err := NewFrontend(Config{Workers: []string{reject.URL, second.URL}})
	if err != nil {
		t.Fatal(err)
	}
	_, degraded, err := f.Coverage(context.Background(), testStudyConfig(67))
	var rej *RejectedError
	if !errors.As(err, &rej) {
		t.Fatalf("err = %v, want RejectedError", err)
	}
	if degraded {
		t.Fatal("a rejected job must not be retried locally")
	}
	if rejects.Load()+other.Load() != 1 {
		t.Fatalf("rejected job was re-dispatched: home=%d other=%d", rejects.Load(), other.Load())
	}
}

func TestFrontendProbeRevivesWorker(t *testing.T) {
	var healthy atomic.Bool
	worker := NewWorker(WorkerConfig{}).Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if r.URL.Path == PathHealthz && !healthy.Load() {
			http.Error(rw, "sick", http.StatusServiceUnavailable)
			return
		}
		worker.ServeHTTP(rw, r)
	}))
	defer srv.Close()

	f, err := NewFrontend(Config{
		Workers:       []string{srv.URL},
		ProbeInterval: 20 * time.Millisecond,
		ProbeTimeout:  200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	f.Start(ctx)

	waitFor := func(want int, label string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if f.LiveWorkers() == want {
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
		t.Fatalf("%s: LiveWorkers stuck at %d, want %d", label, f.LiveWorkers(), want)
	}

	// Unhealthy endpoint: the probe loop discovers it and marks it down.
	waitFor(0, "sick worker")
	// Recovery: the backoff-probing loop notices and revives it.
	healthy.Store(true)
	waitFor(1, "recovered worker")

	// And the revived worker serves jobs again.
	cfg := testStudyConfig(71)
	want, err := sampling.CoverageStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, degraded, err := f.Coverage(context.Background(), cfg)
	if err != nil || degraded {
		t.Fatalf("post-revival study: err=%v degraded=%v", err, degraded)
	}
	assertSamePoints(t, got, want, "post-revival")
}
