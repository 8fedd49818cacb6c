package main

import (
	"bytes"
	"errors"
	"math"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestTailPercentileRule(t *testing.T) {
	sorted := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	cases := []struct {
		n          int
		rank       int
		beyond     int
		pct        float64
		wantMaxima bool
	}{
		{n: 1000, rank: 990, beyond: 10, pct: 99},
		{n: 2500, rank: 2475, beyond: 25, pct: 99},
		{n: 500, rank: 490, beyond: 10, pct: 98},
		{n: 200, rank: 190, beyond: 10, pct: 95},
		{n: 199, wantMaxima: true},
		{n: 11, wantMaxima: true},
		{n: 3, wantMaxima: true},
	}
	for _, c := range cases {
		got := tailPercentile(sorted(c.n))
		if got.n != c.n {
			t.Errorf("n=%d: reported n=%d", c.n, got.n)
		}
		if c.wantMaxima {
			if got.ms != float64(c.n) || got.beyond != 0 || got.pct != 100 {
				t.Errorf("n=%d: got %+v, want the maximum", c.n, got)
			}
			if !strings.Contains(got.describe(), "maximum") {
				t.Errorf("n=%d: description %q does not say it is the maximum", c.n, got.describe())
			}
			continue
		}
		if got.rank != c.rank || got.beyond != c.beyond || got.pct != c.pct || got.ms != float64(c.rank) {
			t.Errorf("n=%d: got %+v, want rank %d beyond %d p%v", c.n, got, c.rank, c.beyond, c.pct)
		}
		if got.beyond < minBeyond {
			t.Errorf("n=%d: only %d samples beyond the reported percentile", c.n, got.beyond)
		}
		if !strings.Contains(got.describe(), "n=") {
			t.Errorf("n=%d: description %q omits the sample count", c.n, got.describe())
		}
	}
	if got := tailPercentile(nil); got.n != 0 || got.ms != 0 {
		t.Errorf("empty: got %+v", got)
	}
}

func TestCoverageStreamIsDeterministic(t *testing.T) {
	seen := map[uint64]bool{}
	systemsSeen := map[string]bool{}
	for i := 0; i < 2000; i++ {
		a := coverageRequest(7, tagMiss, i)
		b := coverageRequest(7, tagMiss, i)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("request %d differs between calls: %+v vs %+v", i, a, b)
		}
		if a.Seed == 0 || seen[a.Seed] {
			t.Fatalf("request %d: study seed %d is zero or repeats", i, a.Seed)
		}
		seen[a.Seed] = true
		systemsSeen[a.System] = true
		if w := coverageRequest(7, tagWarmup, i); seen[w.Seed] {
			t.Fatalf("warm-up request %d reuses a timed study seed", i)
		}
	}
	if len(systemsSeen) != len(coverageSystems) {
		t.Errorf("stream used systems %v, want all of %v", systemsSeen, coverageSystems)
	}
	// The mix of systems is fixed by position, the same for every seed.
	for _, seed := range []uint64{7, 8} {
		lrz := 0
		for i := 0; i < 400; i++ {
			if coverageRequest(seed, tagMiss, i).System == "lrz" {
				lrz++
			}
		}
		if lrz != 300 {
			t.Errorf("seed %d: %d of 400 studies on lrz, want 300", seed, lrz)
		}
	}
	if reflect.DeepEqual(coverageRequest(7, tagMiss, 0), coverageRequest(8, tagMiss, 0)) {
		t.Error("workload seeds 7 and 8 give the same first request")
	}
}

func TestAPIStreamIsDeterministic(t *testing.T) {
	pools, err := newAPIPools(5)
	if err != nil {
		t.Fatal(err)
	}
	pools2, err := newAPIPools(5)
	if err != nil {
		t.Fatal(err)
	}
	a, b := newAPIStream(5, 0, pools), newAPIStream(5, 0, pools2)
	other := newAPIStream(5, 1, pools)
	kinds := map[string]int{}
	dups, same := 0, 0
	for k := 0; k < 3000; k++ {
		x, y, z := a.next(), b.next(), other.next()
		if !reflect.DeepEqual(x, y) {
			t.Fatalf("op %d differs between two streams of one seed:\n%+v\n%+v", k, x, y)
		}
		if reflect.DeepEqual(x, z) {
			same++
		}
		kinds[x.kind]++
		dups += x.dups
	}
	for _, m := range apiMix {
		if kinds[m.kind] == 0 {
			t.Errorf("kind %s never drawn in 3000 operations", m.kind)
		}
	}
	if dups == 0 {
		t.Error("no duplicate ingest re-sends drawn")
	}
	if same > 1500 {
		t.Errorf("clients 0 and 1 drew %d identical operations of 3000", same)
	}
}

// flagshipText carries every flagship number.
var flagshipText = []byte("Table 2 398.7 kW\nTable 4 11503.3\n59.1%\n581.93\n90.74\n774 MHz / 1.018 V\n")

func TestCheckReproOutputRejectsCorruption(t *testing.T) {
	if err := checkReproOutput(flagshipText, append([]byte(nil), flagshipText...)); err != nil {
		t.Fatalf("identical output rejected: %v", err)
	}
	bad := bytes.Replace(flagshipText, []byte("581.93"), []byte("581.94"), 1)
	if checkReproOutput(flagshipText, bad) == nil {
		t.Error("a changed digit was accepted")
	}
	if checkReproOutput(flagshipText, flagshipText[:len(flagshipText)-1]) == nil {
		t.Error("a truncated rendering was accepted")
	}
	noFlag := bytes.Replace(flagshipText, []byte("774 MHz"), []byte("775 MHz"), 1)
	if checkReproOutput(noFlag, noFlag) == nil {
		t.Error("a reference without a flagship number was accepted")
	}
}

func ok200(body string, hdr ...string) exchange {
	h := http.Header{}
	for i := 0; i+1 < len(hdr); i += 2 {
		h.Set(hdr[i], hdr[i+1])
	}
	return exchange{status: http.StatusOK, header: h, body: []byte(body)}
}

func TestHTTPCheckersRejectCorruption(t *testing.T) {
	want := []byte(`{"nodes":16,"achieved_accuracy":0.0098}` + "\n")
	if err := checkExact(ok200(string(want)), want); err != nil {
		t.Fatalf("exact body rejected: %v", err)
	}
	for name, ex := range map[string]exchange{
		"changed byte": ok200(`{"nodes":17,"achieved_accuracy":0.0098}` + "\n"),
		"429":          {status: http.StatusTooManyRequests, body: want},
		"500":          {status: http.StatusInternalServerError, body: want},
		"degraded":     ok200(`{"points":[],"degraded":true}`),
	} {
		if checkExact(ex, want) == nil {
			t.Errorf("%s accepted", name)
		}
	}
	if err := checkCache(ok200("{}", "X-Cache", "hit"), "hit"); err != nil {
		t.Errorf("hit rejected: %v", err)
	}
	if checkCache(ok200("{}", "X-Cache", "miss"), "hit") == nil {
		t.Error("a miss was accepted as a hit")
	}
	if checkCache(ok200(`{"degraded":true}`, "X-Cache", "miss"), "miss") == nil {
		t.Error("a degraded study was accepted")
	}
}

func TestCheckFleetReadRejectsWrongStatistics(t *testing.T) {
	values := []float64{401.5, 399.25, 410, 388.125}
	good := `{"samples":4,"mean":399.71875}`
	if err := checkFleetRead([]byte(good), values); err != nil {
		t.Fatalf("correct read rejected: %v", err)
	}
	for _, body := range []string{
		`{"samples":5,"mean":399.71875}`,
		`{"samples":4,"mean":399.71876}`,
		`{"samples":4}`,
		`not json`,
	} {
		if checkFleetRead([]byte(body), values) == nil {
			t.Errorf("%s accepted", body)
		}
	}
}

func TestCoverageBodyCheckRejectsCorruption(t *testing.T) {
	req := coverageRequest(3, tagMiss, 0)
	want, err := expectedCoverageBody(req)
	if err != nil {
		t.Fatal(err)
	}
	cfg := runConfig{Workload: "coverage-miss", Seed: 3}
	r := newReport(cfg)
	if err := verifyBodies(cfg, r, map[int][]byte{0: want}); err != nil || r.failed != 0 {
		t.Fatalf("in-process body rejected: err=%v failures=%v", err, r.failures)
	}
	bad := bytes.Replace(want, []byte(`"coverage":0.`), []byte(`"coverage":1.`), 1)
	if bytes.Equal(bad, want) {
		t.Fatal("corruption did not change the body")
	}
	if err := verifyBodies(cfg, r, map[int][]byte{0: bad}); err != nil || r.failed != 1 {
		t.Errorf("corrupted body: err=%v failed=%d, want one failure", err, r.failed)
	}
}

func TestWorkCountChecksRejectWrongCounts(t *testing.T) {
	r := newReport(runConfig{})
	good := map[string]int64{"server.cache.misses": 10, "sampling.bootstrap.replicates": 10 * coverageReplicates}
	checkCoverageCounts(r, good, 10, 0, false)
	if r.failed != 0 {
		t.Fatalf("exact counts failed: %v", r.failures)
	}
	checkCoverageCounts(r, map[string]int64{"server.cache.misses": 10, "sampling.bootstrap.replicates": 9999}, 10, 0, false)
	if r.failed != 1 {
		t.Errorf("a replicate count one short gave %d failures, want 1", r.failed)
	}
	dist := map[string]int64{"server.cache.misses": 2, "dist.jobs.remote_ok": 2, "dist.frames.checkpoint": 32,
		"worker:sampling_bootstrap_replicates": 2 * coverageReplicates, "dist.jobs.rerouted": 1}
	r = newReport(runConfig{})
	checkCoverageCounts(r, dist, 2, 16, true)
	if r.failed != 1 {
		t.Errorf("a rerouted job gave %d failures, want 1: %v", r.failed, r.failures)
	}

	pools, err := newAPIPools(1)
	if err != nil {
		t.Fatal(err)
	}
	tgt := &apiTarget{pools: pools, streams: []*apiStream{newAPIStream(1, 0, pools)}}
	tallies := []apiTally{{hits: 3, accepted: 32, dups: 16}}
	r = newReport(runConfig{})
	checkAPIWork(tgt, r, tallies, map[string]int64{"server.cache.hits": 3, "fleet.samples_accepted": 32, "fleet.samples_duplicate": 16})
	if r.failed != 0 {
		t.Fatalf("exact api-mix counts failed: %v", r.failures)
	}
	checkAPIWork(tgt, r, tallies, map[string]int64{"server.cache.hits": 3, "fleet.samples_accepted": 32, "fleet.samples_duplicate": 16,
		"sampling.bootstrap.replicates": 1000})
	if r.failed != 1 {
		t.Errorf("replicates during api-mix gave %d failures, want 1", r.failed)
	}
}

func TestSelfTimesSubtractCoveredChildTime(t *testing.T) {
	ms := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }
	spans := []span{
		{ID: 1, Layer: "bench", Start: 0, End: ms(10)},
		{ID: 2, Parent: 1, Layer: "client", Start: ms(2), End: ms(5)},
		{ID: 3, Parent: 1, Layer: "client", Start: ms(4), End: ms(8)},
		{ID: 4, Parent: 3, Layer: "server", Start: ms(5), End: ms(7)},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{"bench": ms(4), "client": ms(5), "server": ms(2)}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
}

func TestImportTraceNestsServerSpans(t *testing.T) {
	rec := newRecorder()
	cs := rec.add(0, 1, "client", "POST", 0, 30*time.Millisecond)
	evs := []serverEvent{
		{Name: "coverage", Cat: "request", Ph: "X", Ts: 0, Dur: 20000},
		{Name: "coverage_compute", Cat: "server", Ph: "X", Ts: 100, Dur: 19000},
		{Name: "coverage_study", Cat: "phase", Ph: "X", Ts: 200, Dur: 18000},
	}
	importTrace(rec, cs, 1, evs, serverLayer(false))
	self := rec.selfTimes()
	if self["client"] != 10*time.Millisecond {
		t.Errorf("client self %v, want 10ms (30ms minus the 20ms request)", self["client"])
	}
	if self["sampling"] != 18*time.Millisecond || self["server"] != 2*time.Millisecond {
		t.Errorf("self times %v, want sampling 18ms and server 2ms", self)
	}
	if got := serverLayer(true)(serverEvent{Name: "coverage_compute", Cat: "server"}); got != "dist" {
		t.Errorf("coverage_compute behind a worker maps to %q, want dist", got)
	}
}

func TestFailedOperationsMissTheSLOButNotTheLatencies(t *testing.T) {
	ph := closedLoop(1, 0, 1100, func(_, k int) opResult {
		if k < 20 {
			return opResult{kind: kindCoverage, err: errBench}
		}
		return opResult{kind: kindCoverage, lat: time.Millisecond}
	})
	ph.applySLO(coverageSLO)
	if ph.failed != 20 || ph.ok != 1080 || len(ph.lats) != 1080 {
		t.Fatalf("failed %d ok %d latencies %d", ph.failed, ph.ok, len(ph.lats))
	}
	if ph.sloOK || ph.opsPerSecond() != 0 {
		t.Error("20 failures in 1100 operations left the p99 within the SLO")
	}
	if tail := ph.tail(); tail.ms != 1 {
		t.Errorf("reported tail %v ms includes failed operations", tail.ms)
	}
	r := newReport(runConfig{})
	r.addPhase(ph)
	r.endToEnd(ph, []float64{0.1}, 1, 540*time.Millisecond)
	if got := r.e2e["cpu_ms_per_op"].Value; got != 0.5 {
		t.Errorf("cpu_ms_per_op %v, want 540 ms over 1080 verified operations = 0.5", got)
	}
	if got := r.layer["loop.ops_per_s"].Value; got != 0 {
		t.Errorf("loop.ops_per_s %v with the SLO broken, want 0", got)
	}
	r.e2e["p50_ms"] = metric{Value: math.Inf(1), Unit: "ms"}
	if res := r.finish(); res.Correct || res.Metrics["p50_ms"].Value != 0 {
		t.Errorf("a non-finite metric gave correct=%v value=%v", res.Correct, res.Metrics["p50_ms"].Value)
	}
}

var errBench = errors.New("refused")
