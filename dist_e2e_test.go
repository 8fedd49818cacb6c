package nodevar_test

// End-to-end failover suite for the distributed coverage engine: real
// nodevard processes — a frontend and a worker fleet — with a worker
// SIGKILLed mid-study. The contract under test: the study completes on
// a survivor byte-identical to a plain single-process nodevard's
// answer, no request ever sees a 5xx, and with the whole fleet dead the
// frontend still answers — locally computed and flagged degraded.
//
// The suite is seeded (four study seeds per the acceptance gate) and
// event-driven: the kill targets whichever worker's /metrics shows an
// active job, not a guess based on timing.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"nodevar/internal/obs"
	"nodevar/internal/rng"
)

// lockedBuf is a Writer safe to read while the subprocess is still
// writing (exec.Cmd copies stderr from a goroutine).
type lockedBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuf) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuf) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// distProc is one running nodevard (either role) with its discovered
// base URL.
type distProc struct {
	cmd    *exec.Cmd
	url    string
	done   chan error
	stderr *lockedBuf
	killed bool
}

// startNodevard boots one nodevard process on an ephemeral port and
// parses the base URL from the stdout discovery line. The process is
// SIGKILLed at test cleanup unless the test already took it down.
func startNodevard(t *testing.T, bin string, args ...string) *distProc {
	t.Helper()
	p := &distProc{stderr: &lockedBuf{}, done: make(chan error, 1)}
	p.cmd = exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	p.cmd.Stderr = p.stderr
	stdout, err := p.cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() { p.done <- p.cmd.Wait() }()
	t.Cleanup(func() { p.kill(t) })

	sc := bufio.NewScanner(stdout)
	if !sc.Scan() {
		t.Fatalf("nodevard %v produced no startup line\n%s", args, p.stderr.String())
	}
	const prefix = "nodevard listening on "
	line := sc.Text()
	if !strings.HasPrefix(line, prefix) {
		t.Fatalf("startup line %q, want %q prefix", line, prefix)
	}
	p.url = "http://" + strings.TrimSpace(strings.TrimPrefix(line, prefix))
	go io.Copy(io.Discard, stdout)
	return p
}

// kill SIGKILLs the process and reaps it; idempotent.
func (p *distProc) kill(t *testing.T) {
	t.Helper()
	if p.killed {
		return
	}
	p.killed = true
	p.cmd.Process.Kill()
	select {
	case <-p.done:
	case <-time.After(30 * time.Second):
		t.Errorf("process %d did not exit after SIGKILL", p.cmd.Process.Pid)
	}
}

// promValue scrapes url/metrics and sums the samples of one family.
// Missing families read as 0 (a counter that never incremented is not
// exported).
func promValue(t *testing.T, url, family string) float64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatalf("scrape %s: %v", url, err)
	}
	defer resp.Body.Close()
	fams, err := obs.ParsePrometheus(resp.Body)
	if err != nil {
		t.Fatalf("parse %s/metrics: %v", url, err)
	}
	f, ok := fams[family]
	if !ok {
		return 0
	}
	var sum float64
	for _, s := range f.Samples {
		sum += s.Value
	}
	return sum
}

// distStudyBody renders the deterministic custom-pilot study the suite
// runs; the per-request identity is the seed.
func distStudyBody(seed uint64) string {
	return fmt.Sprintf(`{"pilot_data":[201.5,205.25,199.125,210.0625,203.5,207.25,198.75,212.5,204.0,206.125,200.5,208.25],"population":2000,"sample_sizes":[4,8],"levels":[0.9],"replicates":400,"seed":%d}`, seed)
}

// postCoverage posts one study and returns status and body.
func postCoverage(t *testing.T, base, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(base+"/v1/coverage", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s/v1/coverage: %v", base, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// TestDistFailoverE2E is the acceptance gate for the distributed
// engine, run once per study seed: boot a frontend over two workers
// slowed enough that a study spans real wall-clock, SIGKILL whichever
// worker is computing mid-study, and require every in-flight request to
// complete 200 — non-degraded, byte-identical to a plain no-fleet
// nodevard — with the kill visible only in the frontend's reroute
// counter. Then kill the survivor too and require the next study to
// come back 200 with the degraded flag, its points still identical.
func TestDistFailoverE2E(t *testing.T) {
	dir := buildCmds(t)
	nodevard := filepath.Join(dir, "nodevard")

	// One plain single-process server provides the reference bytes.
	ref := startNodevard(t, nodevard)

	for _, seed := range []uint64{1, 7, 2015, 90125} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			workers := []*distProc{
				startNodevard(t, nodevard, "-role=worker", "-worker-chunk-delay", "10ms"),
				startNodevard(t, nodevard, "-role=worker", "-worker-chunk-delay", "10ms"),
			}
			fe := startNodevard(t, nodevard,
				"-workers", workers[0].url+","+workers[1].url,
				"-probe-interval", "250ms",
				"-dist-checkpoint-every", "1")

			// Three concurrent studies: at 64 chunks x 10ms each spans
			// ~640ms of wall-clock, a wide-open window for the kill.
			seeds := []uint64{seed, seed + 1000003, seed + 2000003}
			type result struct {
				status int
				body   []byte
			}
			results := make([]result, len(seeds))
			var wg sync.WaitGroup
			for i, s := range seeds {
				wg.Add(1)
				go func(i int, s uint64) {
					defer wg.Done()
					results[i].status, results[i].body = postCoverage(t, fe.url, distStudyBody(s))
				}(i, s)
			}

			// Event-driven kill: SIGKILL whichever worker's metrics show a
			// job actually computing.
			victim := -1
			deadline := time.Now().Add(10 * time.Second)
			for victim < 0 {
				if time.Now().After(deadline) {
					t.Fatalf("no worker ever showed an active job\nfrontend stderr:\n%s", fe.stderr.String())
				}
				for i, w := range workers {
					if promValue(t, w.url, "dist_worker_active_jobs") >= 1 {
						victim = i
						break
					}
				}
				if victim < 0 {
					time.Sleep(10 * time.Millisecond)
				}
			}
			workers[victim].kill(t)
			t.Logf("SIGKILLed worker %d mid-study", victim)

			wg.Wait()
			for i, s := range seeds {
				if results[i].status != http.StatusOK {
					t.Fatalf("study seed=%d answered %d during failover (want 200, zero 5xx)\n%s\nfrontend stderr:\n%s",
						s, results[i].status, results[i].body, fe.stderr.String())
				}
				if bytes.Contains(results[i].body, []byte(`"degraded":true`)) {
					t.Fatalf("study seed=%d flagged degraded with a live survivor:\n%s", s, results[i].body)
				}
				refStatus, refBody := postCoverage(t, ref.url, distStudyBody(s))
				if refStatus != http.StatusOK {
					t.Fatalf("reference study seed=%d: %d\n%s", s, refStatus, refBody)
				}
				if !bytes.Equal(results[i].body, refBody) {
					t.Fatalf("failover answer for seed=%d is not byte-identical to the single-process answer:\n%s\nvs\n%s",
						s, results[i].body, refBody)
				}
			}
			if v := promValue(t, fe.url, "dist_jobs_rerouted"); v < 1 {
				t.Fatalf("dist_jobs_rerouted = %v after a mid-study kill, want >= 1", v)
			}

			// Take the survivor down too: the next study must still answer,
			// locally computed and flagged, with identical points.
			workers[1-victim].kill(t)
			degSeed := seed + 3000003
			status, body := postCoverage(t, fe.url, distStudyBody(degSeed))
			if status != http.StatusOK {
				t.Fatalf("all-workers-dead study answered %d (want 200 degraded)\n%s", status, body)
			}
			var deg, refResp struct {
				Degraded bool              `json:"degraded"`
				Points   []json.RawMessage `json:"points"`
			}
			if err := json.Unmarshal(body, &deg); err != nil {
				t.Fatal(err)
			}
			if !deg.Degraded {
				t.Fatalf("all-workers-dead response not flagged degraded:\n%s", body)
			}
			_, refBody := postCoverage(t, ref.url, distStudyBody(degSeed))
			if err := json.Unmarshal(refBody, &refResp); err != nil {
				t.Fatal(err)
			}
			if len(deg.Points) != len(refResp.Points) {
				t.Fatalf("%d degraded points vs %d reference", len(deg.Points), len(refResp.Points))
			}
			for i := range deg.Points {
				if !bytes.Equal(deg.Points[i], refResp.Points[i]) {
					t.Fatalf("degraded point %d differs from reference:\n%s\nvs\n%s", i, deg.Points[i], refResp.Points[i])
				}
			}
			if v := promValue(t, fe.url, "dist_jobs_degraded_local"); v < 1 {
				t.Fatalf("dist_jobs_degraded_local = %v after an all-dead fleet, want >= 1", v)
			}
			if v := promValue(t, fe.url, "dist_workers_live"); v != 0 {
				t.Fatalf("dist_workers_live = %v with every worker SIGKILLed, want 0", v)
			}

			// The frontend itself still drains cleanly per the repo-wide
			// signal convention.
			if err := fe.cmd.Process.Signal(syscall.SIGTERM); err != nil {
				t.Fatal(err)
			}
			select {
			case <-fe.done:
				fe.killed = true
			case <-time.After(time.Minute):
				t.Fatalf("frontend did not exit after SIGTERM\n%s", fe.stderr.String())
			}
			if code := fe.cmd.ProcessState.ExitCode(); code != 130 {
				t.Fatalf("frontend exit code %d after SIGTERM, want 130\n%s", code, fe.stderr.String())
			}
		})
	}
}

// TestDistScalingGate proves the split actually scales: the same
// open-loop load offered to a one-worker frontend and a four-worker
// frontend must complete at least twice as many studies on the bigger
// fleet, with zero 5xx on either. Workers carry a 10ms chunk delay so a
// study costs ~640ms of wall-clock regardless of CPU — the gate
// measures the architecture, not the machine. Gated behind
// NODEVAR_DIST_SCALE=1 because it holds ~12s of load.
func TestDistScalingGate(t *testing.T) {
	if os.Getenv("NODEVAR_DIST_SCALE") == "" {
		t.Skip("set NODEVAR_DIST_SCALE=1 to run the open-loop scaling gate")
	}
	dir := buildCmds(t)
	nodevard := filepath.Join(dir, "nodevard")

	var urls []string
	for i := 0; i < 4; i++ {
		w := startNodevard(t, nodevard, "-role=worker", "-worker-chunk-delay", "10ms")
		urls = append(urls, w.url)
	}

	runLoad := func(workers []string, firstSeed uint64) (completed int, s5xx int) {
		t.Helper()
		fe := startNodevard(t, nodevard, "-workers", strings.Join(workers, ","), "-probe-interval", "250ms")
		defer fe.kill(t)
		return openLoop(fe.url, firstSeed)
	}

	// Distinct seed ranges so the four-worker run cannot ride the shared
	// worker's completed-job cache.
	c1, x1 := runLoad(urls[:1], 100000)
	c4, x4 := runLoad(urls, 500000)
	t.Logf("completed in window: 1 worker %d, 4 workers %d", c1, c4)
	if x1 != 0 || x4 != 0 {
		t.Fatalf("5xx under load: 1-worker %d, 4-worker %d (want zero)", x1, x4)
	}
	if c1 == 0 {
		t.Fatal("one-worker run completed nothing; the gate cannot measure scaling")
	}
	if c4 < 2*c1 {
		t.Fatalf("4 workers completed %d studies vs %d on 1 worker; want at least 2x", c4, c1)
	}
}

// openLoop offers base's /v1/coverage 20 studies a second for 5 s.
// Request i fires at start + i/20 s whether or not earlier requests came
// back — a closed loop would slow down to whatever the server can do and
// hide the difference between one worker and four — and carries seed
// firstSeed+i, so no two requests coalesce or hit a cache. At the end of
// the window every request still in flight is cut off. It returns the
// 200s completed inside the window and the 5xx answers.
func openLoop(base string, firstSeed uint64) (completed, s5xx int) {
	const (
		rate   = 20
		window = 5 * time.Second
	)
	// A small fixed pilot: each request's identity lives in its seed.
	r := rng.New(424242)
	pilot := make([]string, 12)
	for k := range pilot {
		pilot[k] = fmt.Sprintf("%.4f", r.Normal(209.88, 5.31))
	}
	start := time.Now()
	deadline := start.Add(window)
	ctx, cancel := context.WithDeadline(context.Background(), deadline)
	defer cancel()

	var (
		wg sync.WaitGroup
		mu sync.Mutex
	)
	for i := 0; ; i++ {
		fireAt := start.Add(time.Duration(i) * time.Second / rate)
		if !fireAt.Before(deadline) {
			break
		}
		time.Sleep(time.Until(fireAt))
		body := fmt.Sprintf(`{"pilot_data":[%s],"population":2000,"sample_sizes":[4,8],"levels":[0.9],"replicates":400,"seed":%d}`,
			strings.Join(pilot, ","), firstSeed+uint64(i))
		wg.Add(1)
		go func() {
			defer wg.Done()
			req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/coverage", strings.NewReader(body))
			if err != nil {
				return
			}
			req.Header.Set("Content-Type", "application/json")
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				return
			}
			defer resp.Body.Close()
			if _, err := io.Copy(io.Discard, resp.Body); err != nil {
				return
			}
			mu.Lock()
			defer mu.Unlock()
			switch {
			case resp.StatusCode == http.StatusOK && time.Now().Before(deadline):
				completed++
			case resp.StatusCode >= 500:
				s5xx++
			}
		}()
	}
	wg.Wait()
	return completed, s5xx
}
