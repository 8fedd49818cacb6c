package nodevar_test

// End-to-end smoke tests of the command-line tools: build each binary
// once and drive its primary flag combinations, asserting on the output.
// These complement the library tests by covering flag wiring and I/O.

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"nodevar/internal/checkpoint"
	"nodevar/internal/obs"
	"nodevar/internal/rng"
	"nodevar/internal/sampling"
)

// buildCmds compiles every cmd/ binary into a temp dir once per test run.
func buildCmds(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("skipping cmd integration in -short mode")
	}
	dir := t.TempDir()
	out, err := exec.Command("go", "build", "-o", dir+string(os.PathSeparator), "./cmd/...").CombinedOutput()
	if err != nil {
		t.Fatalf("go build ./cmd/...: %v\n%s", err, out)
	}
	return dir
}

func run(t *testing.T, bin string, args ...string) string {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", filepath.Base(bin), args, err, out)
	}
	return string(out)
}

// reproAllSHA256 is the sha256 of `repro -exp all` stdout at the
// default options.
const reproAllSHA256 = "2afc75490df64ef1c6367de2bde556e50724c8334af6907ca702579c30bda4ea"

func TestCommandLineTools(t *testing.T) {
	dir := buildCmds(t)
	bin := func(name string) string { return filepath.Join(dir, name) }

	t.Run("powersim", func(t *testing.T) {
		out := run(t, bin("powersim"), "-list")
		if !strings.Contains(out, "lcsc") || !strings.Contains(out, "sequoia") {
			t.Errorf("powersim -list output:\n%s", out)
		}
		csv := filepath.Join(dir, "trace.csv")
		out = run(t, bin("powersim"), "-system", "lcsc", "-samples", "500", "-csv", csv)
		if !strings.Contains(out, "59.1") {
			t.Errorf("powersim output:\n%s", out)
		}
		out = run(t, bin("powersim"), "-analyze", csv)
		if !strings.Contains(out, "Level-1 gaming") {
			t.Errorf("powersim -analyze output:\n%s", out)
		}
	})

	t.Run("green500", func(t *testing.T) {
		out := run(t, bin("green500"))
		if !strings.Contains(out, "L-CSC") || !strings.Contains(out, "5271.8") {
			t.Errorf("green500 output:\n%s", out)
		}
		out = run(t, bin("green500"), "-validate", "revised")
		if !strings.Contains(out, "VIOLATION") && !strings.Contains(out, "requires") {
			t.Errorf("green500 -validate output:\n%s", out)
		}
		out = run(t, bin("green500"), "-trend")
		if !strings.Contains(out, "Nov 2014") {
			t.Errorf("green500 -trend output:\n%s", out)
		}
		csv := filepath.Join(dir, "list.csv")
		run(t, bin("green500"), "-csv", csv)
		data, err := os.ReadFile(csv)
		if err != nil || !strings.Contains(string(data), "rank,system") {
			t.Errorf("green500 -csv file: %v\n%s", err, data)
		}
	})

	t.Run("repro", func(t *testing.T) {
		// The whole pipeline's stdout is pinned, so a change meant to
		// keep the output bit-identical is checked here; a deliberate
		// output change updates reproAllSHA256 in the same commit.
		all, err := exec.Command(bin("repro"), "-exp", "all").Output()
		if err != nil {
			t.Fatalf("repro -exp all: %v", err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(all)); got != reproAllSHA256 {
			t.Errorf("repro -exp all stdout sha256 = %s, want %s", got, reproAllSHA256)
		}
		svgDir := filepath.Join(dir, "svg")
		outDir := filepath.Join(dir, "csv")
		mdPath := filepath.Join(dir, "tables.md")
		out := run(t, bin("repro"), "-exp", "table5",
			"-out", outDir, "-svg", svgDir, "-md", mdPath)
		if !strings.Contains(out, "370") {
			t.Errorf("repro output:\n%s", out)
		}
		if _, err := os.Stat(filepath.Join(outDir, "table5_0.csv")); err != nil {
			t.Errorf("missing CSV output: %v", err)
		}
		md, err := os.ReadFile(mdPath)
		if err != nil || !strings.Contains(string(md), "| 0.5% | 62 |") {
			t.Errorf("markdown output: %v\n%s", err, md)
		}
		// Figure experiment produces SVG files.
		run(t, bin("repro"), "-exp", "figure4", "-svg", svgDir)
		if _, err := os.Stat(filepath.Join(svgDir, "figure4_vid_efficiency.svg")); err != nil {
			t.Errorf("missing SVG output: %v", err)
		}
		// A traced run emits a Chrome trace that passes the same checker
		// chrome://tracing and Perfetto rely on.
		tracePath := filepath.Join(dir, "trace.json")
		run(t, bin("repro"), "-exp", "table1", "-trace-out", tracePath, "-manifest", "none")
		f, err := os.Open(tracePath)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if err := obs.ValidateChromeTrace(f); err != nil {
			t.Errorf("repro -trace-out: %v", err)
		}
	})
}

// TestNodevardServe boots the HTTP service on an ephemeral port,
// discovers the port from the startup line on stdout, exercises the API
// end to end, and checks that SIGTERM drains and exits 130 per the
// repo-wide signal convention.
func TestNodevardServe(t *testing.T) {
	dir := buildCmds(t)

	cmd := exec.Command(filepath.Join(dir, "nodevard"),
		"-addr", "127.0.0.1:0", "-drain-timeout", "30s")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	var stderr strings.Builder
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	defer cmd.Process.Kill()

	// The first stdout line announces the bound address.
	sc := bufio.NewScanner(stdout)
	if !sc.Scan() {
		t.Fatalf("nodevard produced no startup line\n%s", stderr.String())
	}
	line := sc.Text()
	const prefix = "nodevard listening on "
	if !strings.HasPrefix(line, prefix) {
		t.Fatalf("startup line %q, want %q prefix", line, prefix)
	}
	url := "http://" + strings.TrimSpace(strings.TrimPrefix(line, prefix))
	go io.Copy(io.Discard, stdout) // keep the pipe drained

	get := func(path string) (int, []byte) {
		t.Helper()
		resp, err := http.Get(url + path)
		if err != nil {
			t.Fatalf("GET %s: %v\n%s", path, err, stderr.String())
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, b
	}

	// Subset rules for the paper's 210-node example: Level 1 wants 4
	// nodes, the revised rule 21.
	status, body := get("/v1/rules?nodes=210")
	if status != http.StatusOK {
		t.Fatalf("/v1/rules: status %d\n%s", status, body)
	}
	var rules struct {
		Level1  int `json:"level1"`
		Revised int `json:"revised"`
	}
	if err := json.Unmarshal(body, &rules); err != nil {
		t.Fatalf("/v1/rules body: %v\n%s", err, body)
	}
	if rules.Level1 != 4 || rules.Revised != 21 {
		t.Errorf("rules for 210 nodes = %+v, want level1=4 revised=21", rules)
	}

	// Planning via POST: the paper's 18688-node example at 2% sigma/mu
	// and 1% accuracy needs 16 nodes.
	resp, err := http.Post(url+"/v1/samplesize", "application/json",
		strings.NewReader(`{"population":18688,"cv":0.02,"accuracy":0.01}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"nodes":16`) {
		t.Errorf("/v1/samplesize: status %d\n%s", resp.StatusCode, body)
	}

	if status, body = get("/healthz"); status != http.StatusOK {
		t.Errorf("/healthz: status %d\n%s", status, body)
	}

	// SIGTERM drains and exits with the signal convention's 130.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(time.Minute):
		t.Fatalf("nodevard did not exit within 1m of SIGTERM\n%s", stderr.String())
	}
	if code := cmd.ProcessState.ExitCode(); code != 130 {
		t.Fatalf("exit code %d after SIGTERM, want 130\n%s", code, stderr.String())
	}
}

// interruptReplicates sizes TestReproInterrupt's Figure 3 run.
const interruptReplicates = "2000000"

// TestReproInterrupt drives the graceful-shutdown path end to end: a
// long Figure 3 run is interrupted with SIGINT once its checkpoint file
// exists, and must exit 130 leaving a loadable checkpoint and a
// run manifest with status "interrupted". Resuming from that checkpoint
// must print the uninterrupted run's bytes and record exec.resumed.
func TestReproInterrupt(t *testing.T) {
	dir := buildCmds(t)
	ckpt := filepath.Join(dir, "fig3.ckpt")
	manifest := filepath.Join(dir, "manifest.json")

	// Enough replicates that the study cannot finish before the signal
	// lands: the first checkpoint flush comes after 8 of 64 chunks, and
	// the other 56 take about 6 s on a 2-vCPU guest (the whole run about
	// 7 s), so a loaded host still has seconds to deliver the SIGINT.
	cmd := exec.Command(filepath.Join(dir, "repro"),
		"-exp", "figure3", "-replicates", interruptReplicates,
		"-checkpoint", ckpt, "-manifest", manifest)
	var out strings.Builder
	cmd.Stdout = &out
	cmd.Stderr = &out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()

	// Wait for the checkpoint to appear, then interrupt.
	deadline := time.After(2 * time.Minute)
	for {
		if _, err := os.Stat(ckpt); err == nil {
			break
		}
		select {
		case err := <-done:
			t.Fatalf("repro exited before writing a checkpoint: %v\n%s", err, out.String())
		case <-deadline:
			cmd.Process.Kill()
			t.Fatalf("no checkpoint after 2m\n%s", out.String())
		case <-time.After(20 * time.Millisecond):
		}
	}
	if err := cmd.Process.Signal(syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(time.Minute):
		cmd.Process.Kill()
		t.Fatalf("repro did not exit within 1m of SIGINT\n%s", out.String())
	}
	if code := cmd.ProcessState.ExitCode(); code != 130 {
		t.Fatalf("exit code %d after SIGINT, want 130\n%s", code, out.String())
	}

	// The manifest must be the v3 schema with the interrupted status and
	// the exec section describing the run.
	m := readManifest(t, manifest)
	if m.Schema != obs.ManifestSchema || m.Status != obs.StatusInterrupted {
		t.Errorf("manifest schema %q status %q, want %q/interrupted", m.Schema, m.Status, obs.ManifestSchema)
	}
	if m.Exec == nil || m.Exec.Checkpoint != ckpt || m.Exec.Signal == "" {
		t.Errorf("manifest exec section: %+v", m.Exec)
	}

	// The checkpoint must be structurally intact: probing it with the
	// wrong kind must fail the *stamp* check (ErrMismatch), which only
	// happens after the schema and checksum validate.
	raw, err := checkpoint.ReadFile(ckpt)
	if err != nil || raw == nil {
		t.Fatalf("reading the checkpoint: %q, %v", raw, err)
	}
	var state json.RawMessage
	err = checkpoint.Decode(raw, "bogus/kind", 0, 0, &state)
	if !errors.Is(err, checkpoint.ErrMismatch) {
		t.Errorf("checkpoint probe error = %v, want ErrMismatch (intact envelope)", err)
	}

	// Resuming from what the interrupted run left finishes to the bytes
	// of an uninterrupted run, and the manifest says it resumed.
	resumedManifest := filepath.Join(dir, "resumed.json")
	resumed := run(t, filepath.Join(dir, "repro"), "-exp", "figure3", "-replicates", interruptReplicates,
		"-checkpoint", ckpt, "-resume", "-manifest", resumedManifest)
	clean := run(t, filepath.Join(dir, "repro"), "-exp", "figure3", "-replicates", interruptReplicates)
	if resumed != clean {
		t.Errorf("resumed output differs from an uninterrupted run:\n%s\n---\n%s", resumed, clean)
	}
	if m := readManifest(t, resumedManifest); m.Status != obs.StatusOK || m.Exec == nil || !m.Exec.Resumed {
		t.Errorf("resumed run manifest: status %q exec %+v, want ok and resumed", m.Status, m.Exec)
	}
}

func readManifest(t *testing.T, path string) *obs.Manifest {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("no manifest: %v", err)
	}
	defer f.Close()
	m, err := obs.ReadManifest(f)
	if err != nil {
		t.Fatalf("manifest %s unreadable: %v", path, err)
	}
	return m
}

// TestCheckpointFlagsTellTheTruth: only repro, the one command with a
// resumable study, takes -checkpoint/-resume, a resume that finds no
// file records a fresh start, and a checkpoint that cannot be written
// fails the run.
func TestCheckpointFlagsTellTheTruth(t *testing.T) {
	dir := buildCmds(t)
	bin := func(name string) string { return filepath.Join(dir, name) }

	t.Run("commands without a resumable study reject -checkpoint", func(t *testing.T) {
		for _, name := range []string{"green500", "powersim"} {
			out, err := exec.Command(bin(name), "-checkpoint", "x.ckpt").CombinedOutput()
			var ee *exec.ExitError
			if !errors.As(err, &ee) || ee.ExitCode() != 2 || !strings.Contains(string(out), "flag provided but not defined: -checkpoint") {
				t.Errorf("%s -checkpoint: err %v\n%s", name, err, out)
			}
		}
	})

	t.Run("resume from a missing file starts fresh", func(t *testing.T) {
		ckpt := filepath.Join(dir, "absent.ckpt")
		manifest := filepath.Join(dir, "fresh.json")
		out := run(t, bin("repro"), "-exp", "figure3", "-replicates", "2000",
			"-resume", "-checkpoint", ckpt, "-manifest", manifest)
		if clean := run(t, bin("repro"), "-exp", "figure3", "-replicates", "2000"); out != clean {
			t.Errorf("fresh-start output differs from a plain run:\n%s\n---\n%s", out, clean)
		}
		m := readManifest(t, manifest)
		if m.Status != obs.StatusOK || m.Exec == nil || m.Exec.Checkpoint != ckpt || m.Exec.Resumed {
			t.Errorf("manifest: status %q exec %+v, want ok, the checkpoint path and not resumed", m.Status, m.Exec)
		}
		if _, err := os.Stat(ckpt); err != nil {
			t.Errorf("the fresh run left no checkpoint: %v", err)
		}
	})

	t.Run("unwritable checkpoint fails the run", func(t *testing.T) {
		manifest := filepath.Join(dir, "failed.json")
		cmd := exec.Command(bin("repro"), "-exp", "figure3", "-replicates", "2000",
			"-checkpoint", filepath.Join(dir, "no-such-dir", "x.ckpt"), "-manifest", manifest)
		out, err := cmd.CombinedOutput()
		if code := cmd.ProcessState.ExitCode(); code != 1 {
			t.Fatalf("exit code %d (%v), want 1\n%s", code, err, out)
		}
		if !strings.Contains(string(out), "flushing checkpoint") {
			t.Errorf("error output does not name the checkpoint flush:\n%s", out)
		}
		if m := readManifest(t, manifest); m.Status != obs.StatusFailed {
			t.Errorf("manifest status %q, want %q", m.Status, obs.StatusFailed)
		}
	})
}

// TestNodevardRemovedFlags: the request caps, cache sizes, SLO
// objective, fleet window and worker job cap are constants, not
// settings, so nodevard rejects their old flags as unknown (exit 2)
// before it listens.
func TestNodevardRemovedFlags(t *testing.T) {
	nodevard := filepath.Join(buildCmds(t), "nodevard")
	for _, f := range []string{"-max-replicates", "-max-population", "-max-distortion-nodes",
		"-cache-entries", "-runtime-sample", "-slo-objective", "-max-fleets", "-fleet-window",
		"-ingest-max-batch", "-dist-job-timeout", "-worker-max-jobs"} {
		// A flag that still parsed would start a server; the deadline
		// turns that into a failure instead of a hang.
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		out, err := exec.CommandContext(ctx, nodevard, "-addr", "127.0.0.1:0", f+"=1").CombinedOutput()
		cancel()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 2 || !strings.Contains(string(out), "flag provided but not defined: "+f) {
			t.Errorf("nodevard %s=1: err %v\n%s", f, err, out)
		}
	}
}

// TestNodevardIngestServe drives the streaming fleet subsystem end to
// end through a real nodevard process: a seeded 100-node stream is
// POSTed to /v1/ingest in batches (one re-sent verbatim to prove
// idempotency over the wire), the live sample-size endpoint is polled
// until it converges to the batch two-phase recommendation computed
// in-process over the same values, and SIGTERM drains with exit 130.
func TestNodevardIngestServe(t *testing.T) {
	dir := buildCmds(t)

	cmd := exec.Command(filepath.Join(dir, "nodevard"),
		"-addr", "127.0.0.1:0", "-drain-timeout", "30s")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	var stderr strings.Builder
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	defer cmd.Process.Kill()

	sc := bufio.NewScanner(stdout)
	if !sc.Scan() {
		t.Fatalf("nodevard produced no startup line\n%s", stderr.String())
	}
	const prefix = "nodevard listening on "
	line := sc.Text()
	if !strings.HasPrefix(line, prefix) {
		t.Fatalf("startup line %q, want %q prefix", line, prefix)
	}
	url := "http://" + strings.TrimSpace(strings.TrimPrefix(line, prefix))
	go io.Copy(io.Discard, stdout)

	// A deterministic 100-node stream and its batch reference answer,
	// computed with the same library the server uses.
	const nodes = 100
	values := make([]float64, nodes)
	r := rng.New(2015)
	for i := range values {
		values[i] = r.Normal(415, 9)
	}
	wantRec, err := sampling.TwoPhase(values, 0.95, 0.01, nodes)
	if err != nil {
		t.Fatal(err)
	}

	post := func(body string) (int, []byte) {
		t.Helper()
		resp, err := http.Post(url+"/v1/ingest", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST /v1/ingest: %v\n%s", err, stderr.String())
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, b
	}

	// Stream in 10 batches of 10; re-send the middle batch verbatim.
	var batches []string
	for start := 0; start < nodes; start += 10 {
		var sb strings.Builder
		sb.WriteString(`{"fleet":"live","samples":[`)
		for i := start; i < start+10; i++ {
			if i > start {
				sb.WriteString(",")
			}
			fmt.Fprintf(&sb, `{"node":"n%03d","seq":1,"watts":%v}`, i, values[i])
		}
		sb.WriteString(`]}`)
		batches = append(batches, sb.String())
	}
	for i, b := range batches {
		status, body := post(b)
		if status != http.StatusOK {
			t.Fatalf("ingest batch %d: status %d\n%s", i, status, body)
		}
		if i == 5 {
			status, body = post(b) // wire-level retry must be a no-op
			if status != http.StatusOK || !strings.Contains(string(body), `"duplicates":10`) {
				t.Fatalf("retried batch: status %d\n%s", status, body)
			}
		}
	}

	// Poll the live recommendation until it converges to the batch
	// two-phase answer over the full stream.
	deadline := time.After(time.Minute)
	for {
		resp, err := http.Get(url + "/v1/fleet/live/samplesize?accuracy=0.01&confidence=0.95&population=" + fmt.Sprint(nodes))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var sr struct {
			Samples     uint64 `json:"samples"`
			Recommended int    `json:"recommended"`
			Source      string `json:"source"`
		}
		if resp.StatusCode == http.StatusOK {
			if err := json.Unmarshal(b, &sr); err != nil {
				t.Fatalf("samplesize body: %v\n%s", err, b)
			}
			if sr.Samples == nodes && sr.Recommended == wantRec {
				if sr.Source != "live-ingest" {
					t.Fatalf("samplesize source %q, want live-ingest", sr.Source)
				}
				break
			}
		}
		select {
		case <-deadline:
			t.Fatalf("samplesize never converged to %d: last status %d body %s", wantRec, resp.StatusCode, b)
		case <-time.After(50 * time.Millisecond):
		}
	}

	// Stats and outliers views answer over the same live state.
	resp, err := http.Get(url + "/v1/fleet/live/stats")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK ||
		!strings.Contains(string(b), `"samples":100`) ||
		!strings.Contains(string(b), `"duplicates":10`) ||
		!strings.Contains(string(b), `"p50"`) {
		t.Fatalf("/v1/fleet/live/stats: status %d\n%s", resp.StatusCode, b)
	}
	resp, err = http.Get(url + "/v1/fleet/live/outliers?z=3")
	if err != nil {
		t.Fatal(err)
	}
	b, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(b), `"outliers"`) {
		t.Fatalf("/v1/fleet/live/outliers: status %d\n%s", resp.StatusCode, b)
	}

	// SIGTERM drains and exits with the signal convention's 130.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(time.Minute):
		t.Fatalf("nodevard did not exit within 1m of SIGTERM\n%s", stderr.String())
	}
	if code := cmd.ProcessState.ExitCode(); code != 130 {
		t.Fatalf("exit code %d after SIGTERM, want 130\n%s", code, stderr.String())
	}
}
