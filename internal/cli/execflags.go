package cli

import (
	"context"
	"errors"
	"flag"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"nodevar/internal/checkpoint"
	"nodevar/internal/obs"
)

// ExecFlags is the execution-control flag set. Every command-line tool
// takes a whole-run timeout; checkpoint/resume is registered only by the
// command whose study can resume (repro), via RegisterCheckpoint.
type ExecFlags struct {
	Timeout    time.Duration
	Checkpoint string
	Resume     bool
}

// Register installs the shared flag, -timeout, on fs.
func (e *ExecFlags) Register(fs *flag.FlagSet) {
	fs.DurationVar(&e.Timeout, "timeout", 0,
		"cancel the run after this duration (e.g. 10m) and exit 124; 0 disables")
}

// RegisterCheckpoint installs -checkpoint and -resume on fs. Only a
// command that hands Run.Progress's channel to a resumable study may
// register them.
func (e *ExecFlags) RegisterCheckpoint(fs *flag.FlagSet) {
	fs.StringVar(&e.Checkpoint, "checkpoint", "",
		"save resumable progress of the coverage study to this file")
	fs.BoolVar(&e.Resume, "resume", false,
		"load progress from -checkpoint before running; a missing file is a fresh start")
}

// Validate rejects inconsistent combinations.
func (e *ExecFlags) Validate() error {
	if e.Resume && e.Checkpoint == "" {
		return errors.New("cli: -resume requires -checkpoint")
	}
	return nil
}

// RegisterExecFlags installs the shared execution-control flags on the
// default (command-line) flag set and returns them.
func RegisterExecFlags() *ExecFlags {
	e := &ExecFlags{}
	e.Register(flag.CommandLine)
	return e
}

// Process exit codes, following the shell convention for runs ended by
// a deadline (like timeout(1)) or an interrupt (128+SIGINT).
const (
	ExitOK        = 0
	ExitFailure   = 1
	ExitTimeout   = 124
	ExitInterrupt = 130
)

// Progress opens the run's checkpoint channel from -checkpoint and
// -resume, for a study's ResumeData and OnCheckpoint. With -resume it
// returns the envelope bytes the file holds; a file that does not exist
// yet returns none, a fresh start. With -checkpoint it returns a sink
// that atomically replaces the file with each envelope. The manifest
// records the run as resumed only when envelope bytes were loaded.
func (r *Run) Progress(e *ExecFlags) (resume []byte, sink func(envelope []byte) error, err error) {
	path := e.Checkpoint
	if e.Resume {
		if resume, err = checkpoint.ReadFile(path); err != nil {
			return nil, nil, err
		}
		r.mu.Lock()
		r.resumed = len(resume) > 0
		r.mu.Unlock()
	}
	if path != "" {
		sink = func(env []byte) error { return checkpoint.WriteFileAtomic(path, env) }
	}
	return resume, sink, nil
}

// Context derives the run's root context from the execution flags and
// installs graceful-shutdown signal handling: the first SIGINT/SIGTERM
// marks the run interrupted and cancels the context — long experiments
// observe that at their next chunk boundary, flush their checkpoint, and
// unwind so Close can still write the manifest; a second signal exits
// immediately with code 130. The returned stop function releases the
// signal handler and cancels the context; defer it.
func (r *Run) Context(e *ExecFlags) (context.Context, context.CancelFunc) {
	if e != nil {
		r.mu.Lock()
		r.exec = *e
		r.mu.Unlock()
	}
	ctx := context.Background()
	var timeoutCancel context.CancelFunc
	if e != nil && e.Timeout > 0 {
		ctx, timeoutCancel = context.WithTimeout(ctx, e.Timeout)
	}
	ctx, cancel := context.WithCancel(ctx)

	sigc := make(chan os.Signal, 2)
	quit := make(chan struct{})
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		select {
		case sig := <-sigc:
			r.mu.Lock()
			r.status = obs.StatusInterrupted
			r.signal = sig.String()
			r.mu.Unlock()
			r.Log.Warn("signal received; canceling run (a second signal exits immediately)",
				"signal", sig.String())
			cancel()
		case <-quit:
			return
		}
		select {
		case sig := <-sigc:
			r.Log.Error("second signal; exiting without cleanup", "signal", sig.String())
			os.Exit(ExitInterrupt)
		case <-quit:
		}
	}()

	var once sync.Once
	stop := func() {
		once.Do(func() {
			signal.Stop(sigc)
			close(quit)
		})
		cancel()
		if timeoutCancel != nil {
			timeoutCancel()
		}
	}
	return ctx, stop
}

// Close resolves the run's final status from err and the signal state,
// writes the observability artifacts (manifest with that status), and
// returns the process exit code: 0 for success, 130 after an interrupt,
// 124 after the -timeout deadline, 1 for any other failure. Call it
// last and pass its result to os.Exit.
func (r *Run) Close(err error) int {
	r.mu.Lock()
	status := r.status
	switch {
	case err == nil:
		if status == "" {
			status = obs.StatusOK
		}
	case errors.Is(err, context.DeadlineExceeded):
		status = obs.StatusTimeout
	case errors.Is(err, context.Canceled) && status == obs.StatusInterrupted:
		// Canceled because of the signal already recorded; keep it.
	default:
		status = obs.StatusFailed
	}
	r.status = status
	r.mu.Unlock()

	code := ExitOK
	switch status {
	case obs.StatusInterrupted:
		code = ExitInterrupt
	case obs.StatusTimeout:
		code = ExitTimeout
	case obs.StatusFailed:
		code = ExitFailure
	}
	if err != nil {
		r.Log.Error("run ended with error", "err", err, "status", status)
	}
	if ferr := r.Finish(); ferr != nil {
		r.Log.Error("writing observability artifacts failed", "err", ferr)
		if code == ExitOK {
			code = ExitFailure
		}
	}
	return code
}
