package dist

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"nodevar/internal/sampling"
)

// postJob sends one job to a worker server and collects every frame of
// the response stream.
func postJob(t *testing.T, url string, job JobRequest) (int, []Frame) {
	t.Helper()
	o := fetchJob(url, mustMarshal(t, job))
	if o.err != nil {
		t.Fatal(o.err)
	}
	return o.status, o.frames
}

// jobOutcome is one job response: the HTTP status and, on 200, every
// frame of the stream.
type jobOutcome struct {
	status int
	frames []Frame
	err    error
}

// fetchJob is postJob without the testing.T, safe to call off the test
// goroutine.
func fetchJob(url string, body []byte) jobOutcome {
	resp, err := http.Post(url+PathCoverage, "application/json", bytes.NewReader(body))
	if err != nil {
		return jobOutcome{err: err}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return jobOutcome{status: resp.StatusCode}
	}
	var frames []Frame
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64*1024), maxJobBytes)
	for sc.Scan() {
		var fr Frame
		if err := json.Unmarshal(sc.Bytes(), &fr); err != nil {
			return jobOutcome{err: fmt.Errorf("bad frame %q: %v", sc.Text(), err)}
		}
		frames = append(frames, fr)
	}
	return jobOutcome{status: resp.StatusCode, frames: frames, err: sc.Err()}
}

// postJobAsync runs postJob on another goroutine.
func postJobAsync(t *testing.T, url string, job JobRequest) <-chan jobOutcome {
	body := mustMarshal(t, job)
	ch := make(chan jobOutcome, 1)
	go func() { ch <- fetchJob(url, body) }()
	return ch
}

func TestWorkerStreamsCheckpointsAndResult(t *testing.T) {
	srv := httptest.NewServer(NewWorker(WorkerConfig{}).Handler())
	defer srv.Close()

	cfg := testStudyConfig(11)
	want, err := sampling.CoverageStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}

	status, frames := postJob(t, srv.URL, NewJobRequest(cfg, 2, nil))
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	var checkpoints, results int
	var final Frame
	for _, fr := range frames {
		switch fr.Type {
		case FrameCheckpoint:
			checkpoints++
			if len(fr.Checkpoint) == 0 {
				t.Fatal("checkpoint frame without envelope")
			}
			if fr.Total != cfg.Chunks {
				t.Fatalf("checkpoint total = %d, want %d", fr.Total, cfg.Chunks)
			}
		case FrameResult:
			results++
			final = fr
		default:
			t.Fatalf("unexpected frame %+v", fr)
		}
	}
	// Chunks=8, cadence 2 => progress saves plus the final flush.
	if checkpoints < 3 {
		t.Fatalf("only %d checkpoint frames streamed", checkpoints)
	}
	if results != 1 {
		t.Fatalf("%d result frames", results)
	}
	if final.Cached {
		t.Fatal("first run claims to be cached")
	}
	got := ToPoints(final.Points)
	if len(got) != len(want) {
		t.Fatalf("%d points, want %d", len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i].Coverage) != math.Float64bits(want[i].Coverage) ||
			math.Float64bits(got[i].MeanRelWidth) != math.Float64bits(want[i].MeanRelWidth) {
			t.Fatalf("point %d: remote %+v != local %+v", i, got[i], want[i])
		}
	}

	// Same JobID again: replayed from the completed-job cache.
	status, frames = postJob(t, srv.URL, NewJobRequest(cfg, 2, nil))
	if status != http.StatusOK {
		t.Fatalf("replay status %d", status)
	}
	if len(frames) != 1 || frames[0].Type != FrameResult || !frames[0].Cached {
		t.Fatalf("replay frames = %+v, want a single cached result", frames)
	}
}

func TestWorkerResumesFromEnvelope(t *testing.T) {
	cfg := testStudyConfig(23)
	want, err := sampling.CoverageStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// First life locally: stream envelopes, stop after a few chunks.
	var envs [][]byte
	ctx, cancel := context.WithCancel(context.Background())
	first := cfg
	first.OnCheckpoint = func(env []byte) error {
		envs = append(envs, append([]byte(nil), env...))
		return nil
	}
	first.OnChunk = func(done, total int) {
		if done == 3 {
			cancel()
		}
	}
	if _, err := sampling.CoverageStudyCtx(ctx, first); err == nil {
		t.Fatal("first life finished, want cancellation")
	}
	if len(envs) == 0 {
		t.Fatal("no envelopes streamed")
	}

	// Second life on a worker, resuming from the last envelope.
	srv := httptest.NewServer(NewWorker(WorkerConfig{}).Handler())
	defer srv.Close()
	status, frames := postJob(t, srv.URL, NewJobRequest(cfg, 2, envs[len(envs)-1]))
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	final := frames[len(frames)-1]
	if final.Type != FrameResult {
		t.Fatalf("last frame %+v, want result", final)
	}
	got := ToPoints(final.Points)
	for i := range want {
		if math.Float64bits(got[i].Coverage) != math.Float64bits(want[i].Coverage) ||
			math.Float64bits(got[i].MeanRelWidth) != math.Float64bits(want[i].MeanRelWidth) {
			t.Fatalf("point %d: resumed-on-worker %+v != uninterrupted %+v", i, got[i], want[i])
		}
	}
}

func TestWorkerRejectsBadJobs(t *testing.T) {
	srv := httptest.NewServer(NewWorker(WorkerConfig{}).Handler())
	defer srv.Close()

	for name, body := range map[string]string{
		"not json":    `pure garbage`,
		"wrong shape": `{"job_id":"x"}`,
		"nan":         `{"job_id":"x","seed":1,"fingerprint":"0","pilot":[NaN],"population":4}`,
	} {
		resp, err := http.Post(srv.URL+PathCoverage, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var e struct {
			Error string `json:"error"`
		}
		err = json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", name, resp.StatusCode)
		}
		if err != nil || e.Error == "" {
			t.Fatalf("%s: 400 body is not a JSON error: %v", name, err)
		}
	}
}

func TestWorkerHealthz(t *testing.T) {
	srv := httptest.NewServer(NewWorker(WorkerConfig{}).Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + PathHealthz)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	var st struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil || st.Status != "ok" {
		t.Fatalf("healthz body: %+v, %v", st, err)
	}
}

// waitUntil polls cond until it holds or the deadline passes.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestWorkerCoalescesConcurrentDispatches sends one JobID twice while
// the first study is still running (held open by ChunkDelay): the
// second dispatch joins it instead of computing the study again, and
// both end in the same points.
func TestWorkerCoalescesConcurrentDispatches(t *testing.T) {
	srv := httptest.NewServer(NewWorker(WorkerConfig{ChunkDelay: 50 * time.Millisecond}).Handler())
	defer srv.Close()
	job := NewJobRequest(testStudyConfig(31), 2, nil)
	jobs0, joined0 := mWorkerJobs.Value(), mWorkerJoined.Value()

	first := postJobAsync(t, srv.URL, job)
	waitUntil(t, "the first study to start", func() bool { return mWorkerJobs.Value()-jobs0 == 1 })
	status, second := postJob(t, srv.URL, job)
	lead := <-first

	if lead.err != nil || lead.status != http.StatusOK || status != http.StatusOK {
		t.Fatalf("statuses %d, %d (%v)", lead.status, status, lead.err)
	}
	if d := mWorkerJobs.Value() - jobs0; d != 1 {
		t.Fatalf("dist.worker.jobs rose by %d, want 1 (the second dispatch recomputed)", d)
	}
	if d := mWorkerJoined.Value() - joined0; d != 1 {
		t.Fatalf("dist.worker.jobs_coalesced rose by %d, want 1", d)
	}
	a, b := lead.frames[len(lead.frames)-1], second[len(second)-1]
	if a.Type != FrameResult || b.Type != FrameResult {
		t.Fatalf("final frames %+v / %+v, want results", a, b)
	}
	if !bytes.Equal(mustMarshal(t, a.Points), mustMarshal(t, b.Points)) {
		t.Fatalf("coalesced points differ:\n%+v\n%+v", a.Points, b.Points)
	}
	for _, fr := range second {
		if fr.Type == FrameCheckpoint {
			t.Fatal("checkpoint frame streamed to the coalesced connection")
		}
	}
}

// lateWriteGuard wraps a ResponseWriter and, once the handler serving
// it has returned, swallows and counts any further write.
type lateWriteGuard struct {
	http.ResponseWriter
	mu       sync.Mutex
	returned bool
	late     int
}

func (g *lateWriteGuard) ok() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.returned {
		g.late++
	}
	return !g.returned
}

func (g *lateWriteGuard) Write(p []byte) (int, error) {
	if !g.ok() {
		return len(p), nil
	}
	return g.ResponseWriter.Write(p)
}

func (g *lateWriteGuard) Flush() {
	if g.ok() {
		g.ResponseWriter.(http.Flusher).Flush()
	}
}

// TestWorkerLeaderDropKeepsWaiter drops the connection that leads a
// study while a coalesced dispatch still waits on it: the study runs on,
// the waiter gets its result frame, and the leader's writer sees no
// write after its handler returned.
func TestWorkerLeaderDropKeepsWaiter(t *testing.T) {
	w := NewWorker(WorkerConfig{ChunkDelay: 50 * time.Millisecond})
	var (
		gmu    sync.Mutex
		guards []*lateWriteGuard
	)
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		g := &lateWriteGuard{ResponseWriter: rw}
		gmu.Lock()
		guards = append(guards, g)
		gmu.Unlock()
		w.Handler().ServeHTTP(g, r)
		g.mu.Lock()
		g.returned = true
		g.mu.Unlock()
	}))
	defer srv.Close()
	cfg := testStudyConfig(37)
	want, err := sampling.CoverageStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	job := NewJobRequest(cfg, 1, nil)
	jobs0, joined0 := mWorkerJobs.Value(), mWorkerJoined.Value()

	// The leader reads its first checkpoint frame, then hangs up.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL+PathCoverage, bytes.NewReader(mustMarshal(t, job)))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if !bufio.NewScanner(resp.Body).Scan() {
		t.Fatal("leader got no checkpoint frame")
	}

	waiter := postJobAsync(t, srv.URL, job)
	waitUntil(t, "the second dispatch to join", func() bool { return mWorkerJoined.Value()-joined0 == 1 })
	cancel()
	gmu.Lock()
	leader := guards[0]
	gmu.Unlock()
	waitUntil(t, "the leader's handler to return", func() bool {
		leader.mu.Lock()
		defer leader.mu.Unlock()
		return leader.returned
	})
	select {
	case <-waiter:
		t.Fatal("study finished before the leader dropped; ChunkDelay too short to test the drop")
	default:
	}

	got := <-waiter
	if got.err != nil || got.status != http.StatusOK || len(got.frames) != 1 || got.frames[0].Type != FrameResult {
		t.Fatalf("waiter: status %d frames %+v (%v), want one result frame", got.status, got.frames, got.err)
	}
	pts := ToPoints(got.frames[0].Points)
	for i := range want {
		if math.Float64bits(pts[i].Coverage) != math.Float64bits(want[i].Coverage) {
			t.Fatalf("point %d: %+v != %+v", i, pts[i], want[i])
		}
	}
	if d := mWorkerJobs.Value() - jobs0; d != 1 {
		t.Fatalf("dist.worker.jobs rose by %d, want 1", d)
	}
	leader.mu.Lock()
	late := leader.late
	leader.mu.Unlock()
	if late != 0 {
		t.Fatalf("%d writes reached the leader's writer after its handler returned", late)
	}
}
