package cli

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"sync"
	"time"

	"nodevar/internal/obs"
)

// ObsFlags is the observability flag set shared by every command-line
// tool: logging verbosity and format, trace/manifest output paths, and
// the pprof debug server address.
type ObsFlags struct {
	Verbose     bool
	LogFormat   string
	TraceOut    string
	ManifestOut string
	PprofAddr   string
}

// Register installs the flags on fs.
func (o *ObsFlags) Register(fs *flag.FlagSet) {
	fs.BoolVar(&o.Verbose, "v", false, "verbose (debug-level) logging")
	fs.StringVar(&o.LogFormat, "log-format", "text", "log format: text or json")
	fs.StringVar(&o.TraceOut, "trace-out", "", "write a Chrome-trace JSON (open in chrome://tracing or Perfetto) to this path")
	fs.StringVar(&o.ManifestOut, "manifest", "auto",
		`run manifest path ("auto" writes run-manifest.json when -trace-out is set; "none" disables)`)
	fs.StringVar(&o.PprofAddr, "pprof", "", "serve pprof and the metrics (/metrics, /debug/metrics) on this address (e.g. :6060)")
}

// RegisterObsFlags installs the observability flags on the default
// (command-line) flag set and returns them.
func RegisterObsFlags() *ObsFlags {
	o := &ObsFlags{}
	o.Register(flag.CommandLine)
	return o
}

// manifestPath resolves the -manifest value: explicit paths pass
// through, "none"/"" disable, and "auto" enables run-manifest.json only
// when a trace was requested.
func (o *ObsFlags) manifestPath() string {
	switch o.ManifestOut {
	case "", "none":
		return ""
	case "auto":
		if o.TraceOut != "" {
			return "run-manifest.json"
		}
		return ""
	default:
		return o.ManifestOut
	}
}

// Run is one observed command invocation: a structured logger, the
// process tracer (nil unless tracing or a manifest was requested), and
// the bookkeeping needed to emit the Chrome trace and run manifest at
// Finish time.
type Run struct {
	// Log is the command's structured logger (never nil).
	Log *slog.Logger
	// Tracer is the installed process tracer, or nil when disabled.
	Tracer *obs.Tracer

	flags  ObsFlags
	cmd    string
	start  time.Time
	config map[string]any
	faults *obs.FaultsSection

	// mu guards the fields the signal-handler goroutine can touch.
	mu      sync.Mutex
	exec    ExecFlags
	resumed bool // Progress loaded checkpoint bytes
	status  string
	signal  string
}

// SetFaults records the run's fault-injection outcome for the manifest's
// v2 "faults" section. A nil section (fault-free run) leaves the
// manifest without one.
func (r *Run) SetFaults(f *obs.FaultsSection) {
	r.faults = f
}

// Start validates the flags and opens an observed run: it builds the
// logger, installs the process tracer when tracing or a manifest was
// requested, and starts the pprof server when -pprof is set.
func (o *ObsFlags) Start(cmd string) (*Run, error) {
	logger, err := obs.NewLogger(os.Stderr, o.LogFormat, o.Verbose)
	if err != nil {
		return nil, err
	}
	r := &Run{
		Log:    logger,
		flags:  *o,
		cmd:    cmd,
		start:  time.Now(),
		config: map[string]any{},
	}
	if o.TraceOut != "" || o.manifestPath() != "" {
		r.Tracer = obs.NewTracer(0)
		obs.SetTracer(r.Tracer)
	}
	if o.PprofAddr != "" {
		mux := http.NewServeMux()
		obs.HandleDebug(mux)
		srv := &http.Server{Addr: o.PprofAddr, Handler: mux}
		go func() {
			logger.Info("pprof server listening", "addr", o.PprofAddr)
			if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				logger.Error("pprof server failed", "err", err)
			}
		}()
	}
	logger.Debug("run started", "cmd", cmd, "args", os.Args[1:])
	return r, nil
}

// SetConfig records one effective-configuration entry for the run
// manifest (seed, resolution, replicate counts, ...).
func (r *Run) SetConfig(key string, value any) {
	r.config[key] = value
}

// Finish emits the requested artifacts: the Chrome trace (-trace-out)
// and the run manifest (-manifest), which carries the final metrics
// snapshot. It returns the first error encountered but attempts both
// outputs.
func (r *Run) Finish() error {
	var firstErr error
	fail := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if p := r.flags.TraceOut; p != "" && r.Tracer != nil {
		fail(writeFile(p, r.Tracer.WriteChromeTrace))
		r.Log.Debug("chrome trace written", "path", p, "spans", len(r.Tracer.Events()), "dropped", r.Tracer.Dropped())
	}
	if p := r.flags.manifestPath(); p != "" {
		m := obs.NewManifest(r.cmd, os.Args[1:], r.config, r.start, r.Tracer)
		m.Faults = r.faults
		r.mu.Lock()
		if r.status != "" {
			m.Status = r.status
		}
		if e := (ExecFlags{}); r.exec != e || r.signal != "" {
			m.Exec = &obs.ExecSection{
				TimeoutSec: r.exec.Timeout.Seconds(),
				Checkpoint: r.exec.Checkpoint,
				Resumed:    r.resumed,
				Signal:     r.signal,
			}
		}
		r.mu.Unlock()
		fail(writeFile(p, m.WriteJSON))
		r.Log.Debug("run manifest written", "path", p, "version", m.Version, "status", m.Status)
	}
	r.Log.Debug("run finished", "cmd", r.cmd, "elapsed", time.Since(r.start).String())
	return firstErr
}

// writeFile creates path and hands it to write, closing on all paths.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}
