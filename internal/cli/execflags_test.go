package cli

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"nodevar/internal/checkpoint"
	"nodevar/internal/obs"
)

func parseExec(t *testing.T, withCheckpoint bool, args ...string) (*ExecFlags, error) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	e := &ExecFlags{}
	e.Register(fs)
	if withCheckpoint {
		e.RegisterCheckpoint(fs)
	}
	return e, fs.Parse(args)
}

func TestExecFlagsDefaultsAndParse(t *testing.T) {
	e, err := parseExec(t, true)
	if err != nil {
		t.Fatal(err)
	}
	if e.Timeout != 0 || e.Checkpoint != "" || e.Resume {
		t.Errorf("defaults = %+v", e)
	}
	if err := e.Validate(); err != nil {
		t.Errorf("zero flags invalid: %v", err)
	}
	e, err = parseExec(t, true, "-timeout", "90s", "-checkpoint", "x.ckpt", "-resume")
	if err != nil {
		t.Fatal(err)
	}
	if e.Timeout != 90*time.Second || e.Checkpoint != "x.ckpt" || !e.Resume {
		t.Errorf("parsed = %+v", e)
	}
	if err := e.Validate(); err != nil {
		t.Errorf("valid combination rejected: %v", err)
	}
	// The shared set has no checkpoint flags: a command without a
	// resumable study rejects them instead of accepting and ignoring them.
	if _, err := parseExec(t, false, "-timeout", "1s"); err != nil {
		t.Errorf("shared flags rejected: %v", err)
	}
	for _, arg := range []string{"-checkpoint=x.ckpt", "-resume"} {
		if _, err := parseExec(t, false, arg); err == nil {
			t.Errorf("%s accepted without RegisterCheckpoint", arg)
		}
	}
}

// TestExecFlagsResumeNeedsCheckpoint: -resume names no file on its own,
// so it is rejected without -checkpoint.
func TestExecFlagsResumeNeedsCheckpoint(t *testing.T) {
	bad, err := parseExec(t, true, "-resume")
	if err != nil {
		t.Fatal(err)
	}
	if err := bad.Validate(); err == nil {
		t.Error("-resume without -checkpoint validated")
	}
}

// TestProgressReadsAndWritesCheckpointFile: the channel Progress opens
// is the file — the sink writes envelopes there atomically, and -resume
// hands back exactly those bytes. A file that does not exist yet is a
// fresh start, and only loaded bytes mark the run resumed.
func TestProgressReadsAndWritesCheckpointFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fig3.ckpt")
	run := newTestRun(t, ObsFlags{LogFormat: "text"})
	resume, sink, err := run.Progress(&ExecFlags{Checkpoint: path, Resume: true})
	if err != nil || resume != nil || sink == nil {
		t.Fatalf("missing file: resume %q, sink %v, err %v", resume, sink != nil, err)
	}
	if run.resumed {
		t.Error("run marked resumed with no checkpoint file")
	}
	env, err := checkpoint.Encode("demo", 1, 2, []int{3})
	if err != nil {
		t.Fatal(err)
	}
	if err := sink(env); err != nil {
		t.Fatal(err)
	}
	resume, _, err = run.Progress(&ExecFlags{Checkpoint: path, Resume: true})
	if err != nil || string(resume) != string(env) {
		t.Fatalf("resume = %q, %v; want the written envelope", resume, err)
	}
	if !run.resumed {
		t.Error("run not marked resumed after loading envelope bytes")
	}
	// Without -resume the file is only written, never read.
	if resume, _, _ := newTestRun(t, ObsFlags{LogFormat: "text"}).Progress(&ExecFlags{Checkpoint: path}); resume != nil {
		t.Error("Progress without -resume loaded bytes")
	}
	// An unwritable checkpoint path surfaces as a sink error.
	_, sink, _ = run.Progress(&ExecFlags{Checkpoint: filepath.Join(path, "x.ckpt")})
	if err := sink(env); err == nil {
		t.Error("sink wrote under a regular file")
	}
}

func newTestRun(t *testing.T, flags ObsFlags) *Run {
	t.Helper()
	run, err := flags.Start("test")
	if err != nil {
		t.Fatal(err)
	}
	return run
}

func TestRunContextTimeout(t *testing.T) {
	run := newTestRun(t, ObsFlags{LogFormat: "text"})
	ctx, stop := run.Context(&ExecFlags{Timeout: 10 * time.Millisecond})
	defer stop()
	select {
	case <-ctx.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("timeout context never fired")
	}
	if !errors.Is(ctx.Err(), context.DeadlineExceeded) {
		t.Fatalf("ctx.Err() = %v", ctx.Err())
	}
	if code := run.Close(ctx.Err()); code != ExitTimeout {
		t.Errorf("Close after timeout = %d, want %d", code, ExitTimeout)
	}
}

func TestRunContextSignalInterrupts(t *testing.T) {
	run := newTestRun(t, ObsFlags{LogFormat: "text"})
	ctx, stop := run.Context(&ExecFlags{Checkpoint: "x.ckpt"})
	defer stop()
	// Deliver a real SIGINT to this process; the handler must mark the
	// run interrupted and cancel the context.
	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ctx.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("SIGINT did not cancel the run context")
	}
	if !errors.Is(ctx.Err(), context.Canceled) {
		t.Fatalf("ctx.Err() = %v", ctx.Err())
	}
	if code := run.Close(ctx.Err()); code != ExitInterrupt {
		t.Errorf("Close after SIGINT = %d, want %d", code, ExitInterrupt)
	}
}

func TestCloseStatusResolution(t *testing.T) {
	for _, tc := range []struct {
		name string
		err  error
		code int
	}{
		{"success", nil, ExitOK},
		{"plain failure", errors.New("boom"), ExitFailure},
		{"timeout", context.DeadlineExceeded, ExitTimeout},
		{"cancellation without signal", context.Canceled, ExitFailure},
	} {
		run := newTestRun(t, ObsFlags{LogFormat: "text"})
		if code := run.Close(tc.err); code != tc.code {
			t.Errorf("%s: Close = %d, want %d", tc.name, code, tc.code)
		}
	}
}

func TestCloseWritesInterruptedManifest(t *testing.T) {
	dir := t.TempDir()
	manifest := filepath.Join(dir, "manifest.json")
	ckpt := filepath.Join(dir, "fig3.ckpt")
	env, err := checkpoint.Encode("demo", 1, 2, []int{3})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkpoint.WriteFileAtomic(ckpt, env); err != nil {
		t.Fatal(err)
	}
	run := newTestRun(t, ObsFlags{LogFormat: "text", ManifestOut: manifest})
	exec := &ExecFlags{
		Timeout:    time.Hour,
		Checkpoint: ckpt,
		Resume:     true,
	}
	_, stop := run.Context(exec)
	if _, _, err := run.Progress(exec); err != nil {
		t.Fatal(err)
	}
	// Simulate the signal path without racing a real signal: Close after
	// the handler would have recorded it.
	run.mu.Lock()
	run.status = obs.StatusInterrupted
	run.signal = "interrupt"
	run.mu.Unlock()
	stop()

	if run.Tracer == nil {
		t.Fatal("manifest-enabled run has no tracer")
	}
	if code := run.Close(context.Canceled); code != ExitInterrupt {
		t.Fatalf("Close = %d, want %d", code, ExitInterrupt)
	}
	f, err := os.Open(manifest)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	m, err := obs.ReadManifest(f)
	if err != nil {
		t.Fatalf("interrupted manifest unreadable: %v", err)
	}
	if m.Schema != obs.ManifestSchema || m.Status != obs.StatusInterrupted {
		t.Errorf("schema %q status %q", m.Schema, m.Status)
	}
	if m.Exec == nil || m.Exec.Signal != "interrupt" || m.Exec.Checkpoint != ckpt || !m.Exec.Resumed {
		t.Errorf("exec section: %+v", m.Exec)
	}
}

func TestCloseDefaultStatusOK(t *testing.T) {
	dir := t.TempDir()
	manifest := filepath.Join(dir, "manifest.json")
	run := newTestRun(t, ObsFlags{LogFormat: "text", ManifestOut: manifest})
	if code := run.Close(nil); code != ExitOK {
		t.Fatalf("Close = %d", code)
	}
	raw, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Status string          `json:"status"`
		Exec   json.RawMessage `json:"exec"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if m.Status != obs.StatusOK {
		t.Errorf("status %q, want ok", m.Status)
	}
	if len(m.Exec) != 0 {
		t.Errorf("plain run grew an exec section: %s", m.Exec)
	}
}
