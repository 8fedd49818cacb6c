// Command loadgen drives nodevard's /v1/coverage endpoint with a
// deterministic open-loop request schedule: requests are issued on a
// fixed cadence derived from -rate regardless of how fast the server
// answers, which is what exposes capacity — a closed loop would politely
// slow down to whatever the server can do and hide the difference
// between one worker and four. The request sequence (bodies, seeds,
// issue times relative to start) is a pure function of the flags, so two
// runs against the same deployment offer byte-identical work.
//
// Each request is its own coverage study (consecutive seeds from
// -first-seed), so nothing coalesces or hits caches unless -studies
// bounds the seed cycle. The summary — offered/completed counts, status
// classes, degraded answers, completion throughput inside the window —
// is printed to stdout as one JSON object for harnesses to parse.
//
// Usage:
//
//	loadgen -target http://127.0.0.1:8080 -rate 20 -duration 5s
//	loadgen -target $URL -rate 50 -duration 10s -replicates 800 -max-5xx 0
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"nodevar/internal/cli"
	"nodevar/internal/rng"
)

func main() {
	os.Exit(realMain())
}

// study renders the i-th request body. Consecutive requests get
// consecutive seeds; with cycle > 0 the seeds repeat every cycle
// requests (exercising the cache/coalescing path on purpose).
func study(firstSeed uint64, i, cycle, replicates int) (uint64, string) {
	idx := i
	if cycle > 0 {
		idx = i % cycle
	}
	seed := firstSeed + uint64(idx)
	// A small fixed pilot: the per-request identity lives in the seed.
	r := rng.New(424242)
	pilot := make([]string, 12)
	for k := range pilot {
		pilot[k] = fmt.Sprintf("%.4f", r.Normal(209.88, 5.31))
	}
	body := fmt.Sprintf(`{"pilot_data":[%s],"population":2000,"sample_sizes":[4,8],"levels":[0.9],"replicates":%d,"seed":%d}`,
		strings.Join(pilot, ","), replicates, seed)
	return seed, body
}

type outcome struct {
	status    int
	degraded  bool
	transport bool
	aborted   bool
	latency   time.Duration
	inWindow  bool
}

// summary is the machine-readable run result.
type summary struct {
	Offered     int     `json:"offered"`
	Completed   int     `json:"completed"`
	OK          int     `json:"ok_200"`
	Degraded    int     `json:"degraded"`
	Status4xx   int     `json:"status_4xx"`
	Status5xx   int     `json:"status_5xx"`
	Transport   int     `json:"transport_errors"`
	Aborted     int     `json:"aborted_at_cutoff"`
	DurationSec float64 `json:"duration_sec"`
	Throughput  float64 `json:"completed_per_sec"`
	P50Ms       float64 `json:"p50_ms"`
	P95Ms       float64 `json:"p95_ms"`
}

func realMain() int {
	var (
		target     = flag.String("target", "", "nodevard base URL (required)")
		rate       = flag.Float64("rate", 10, "offered request rate per second (open loop)")
		duration   = flag.Duration("duration", 5*time.Second, "measurement window; requests are issued and counted inside it")
		firstSeed  = flag.Uint64("first-seed", 100000, "seed of the first study; request i uses first-seed+i")
		studies    = flag.Int("studies", 0, "cycle length of distinct studies; 0 gives every request a unique seed")
		replicates = flag.Int("replicates", 400, "bootstrap replicates per study")
		reqTimeout = flag.Duration("request-timeout", 60*time.Second, "per-request client budget")
		max5xx     = flag.Int("max-5xx", -1, "exit non-zero when more than this many 5xx responses arrive; -1 disables the gate")
		obsFlags   = cli.RegisterObsFlags()
		execFlags  = cli.RegisterExecFlags()
	)
	flag.Parse()
	if *target == "" {
		cli.Fatal(errors.New("-target is required"))
	}
	if *rate <= 0 {
		cli.Fatal(fmt.Errorf("-rate %v must be positive", *rate))
	}

	run, err := obsFlags.Start("loadgen")
	if err != nil {
		cli.Fatal(err)
	}
	ctx, stop := run.Context(execFlags)
	defer stop()
	run.SetConfig("target", *target)
	run.SetConfig("rate", *rate)
	run.SetConfig("duration", duration.String())
	run.SetConfig("first_seed", *firstSeed)
	run.SetConfig("studies", *studies)
	run.SetConfig("replicates", *replicates)

	client := &http.Client{Timeout: *reqTimeout}
	url := strings.TrimRight(*target, "/") + "/v1/coverage"

	// The issue clock is open-loop: request i fires at start + i/rate,
	// whether or not earlier requests came back. At the window cutoff the
	// shared context aborts whatever is still in flight — those count as
	// aborted, not failed: the window closed on them, they did not break.
	interval := time.Duration(float64(time.Second) / *rate)
	start := time.Now()
	deadline := start.Add(*duration)
	reqCtx, cutoff := context.WithDeadline(ctx, deadline)
	defer cutoff()

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		outcomes []outcome
	)
	offered := 0
	for i := 0; ; i++ {
		fireAt := start.Add(time.Duration(float64(i) * float64(interval)))
		if !fireAt.Before(deadline) {
			break
		}
		if d := time.Until(fireAt); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
			}
		}
		if ctx.Err() != nil {
			break
		}
		offered++
		_, body := study(*firstSeed, i, *studies, *replicates)
		wg.Add(1)
		go func(body string) {
			defer wg.Done()
			t0 := time.Now()
			o := issue(reqCtx, client, url, body)
			o.latency = time.Since(t0)
			o.inWindow = o.status == http.StatusOK && time.Now().Before(deadline)
			mu.Lock()
			outcomes = append(outcomes, o)
			mu.Unlock()
		}(body)
	}
	wg.Wait()

	s := summary{Offered: offered, DurationSec: duration.Seconds()}
	var lat []time.Duration
	for _, o := range outcomes {
		switch {
		case o.aborted:
			s.Aborted++
		case o.transport:
			s.Transport++
		case o.status == http.StatusOK:
			s.OK++
			if o.degraded {
				s.Degraded++
			}
			if o.inWindow {
				s.Completed++
				lat = append(lat, o.latency)
			}
		case o.status >= 500:
			s.Status5xx++
		case o.status >= 400:
			s.Status4xx++
		}
	}
	if s.DurationSec > 0 {
		s.Throughput = float64(s.Completed) / s.DurationSec
	}
	if len(lat) > 0 {
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		s.P50Ms = float64(lat[len(lat)/2]) / float64(time.Millisecond)
		s.P95Ms = float64(lat[len(lat)*95/100]) / float64(time.Millisecond)
	}

	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(s); err != nil {
		return run.Close(err)
	}
	run.SetConfig("summary_completed", s.Completed)
	run.SetConfig("summary_5xx", s.Status5xx)

	if *max5xx >= 0 && s.Status5xx > *max5xx {
		return run.Close(fmt.Errorf("loadgen: %d 5xx responses exceed the -max-5xx budget of %d", s.Status5xx, *max5xx))
	}
	if err := ctx.Err(); err != nil {
		return run.Close(err)
	}
	return run.Close(nil)
}

// issue sends one request and classifies the outcome.
func issue(ctx context.Context, client *http.Client, url, body string) outcome {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		return outcome{transport: true}
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			return outcome{aborted: true}
		}
		return outcome{transport: true}
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		if ctx.Err() != nil {
			return outcome{aborted: true}
		}
		return outcome{transport: true}
	}
	o := outcome{status: resp.StatusCode}
	if resp.StatusCode == http.StatusOK {
		var probe struct {
			Degraded bool `json:"degraded"`
		}
		if json.Unmarshal(raw, &probe) == nil {
			o.degraded = probe.Degraded
		}
	}
	return o
}
