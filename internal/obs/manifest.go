package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"time"
)

// ManifestSchema identifies the manifest layout; bump on breaking
// changes. v3 added the run status plus the optional "exec" (timeout,
// checkpoint, signal) section; v2 added the optional "faults" section
// describing injected faults and the resulting data completeness. Both
// earlier schemas are still readable via ReadManifest, and keys that no
// longer exist (v3's former "watchdog" section, v2's meter_* fault
// counts) are ignored.
const (
	ManifestSchema   = "nodevar/run-manifest/v3"
	ManifestSchemaV2 = "nodevar/run-manifest/v2"
	ManifestSchemaV1 = "nodevar/run-manifest/v1"
)

// Run statuses recorded in a v3 manifest. A manifest is written on
// every exit path — the status says which one the run took.
const (
	// StatusOK is a run that completed normally.
	StatusOK = "ok"
	// StatusInterrupted is a run canceled by SIGINT/SIGTERM; its partial
	// artifacts (checkpoint, metrics up to the signal) are valid.
	StatusInterrupted = "interrupted"
	// StatusTimeout is a run canceled by its own -timeout deadline.
	StatusTimeout = "timeout"
	// StatusFailed is a run that exited with an error.
	StatusFailed = "failed"
)

// ExecSection records the execution-control envelope of a run: the
// configured timeout, the checkpoint file in play, whether the run
// resumed from it, and the signal that ended the run early (if any).
// Written only when at least one of those is in effect.
type ExecSection struct {
	TimeoutSec float64 `json:"timeout_sec,omitempty"`
	Checkpoint string  `json:"checkpoint,omitempty"`
	Resumed    bool    `json:"resumed,omitempty"`
	Signal     string  `json:"signal,omitempty"`
}

// FaultsSection records a run's fault-injection schedule and what it
// cost: the seed and schedule for byte-identical replay, the observed
// data completeness, and the per-class injection counts. It is written
// only for degraded runs (omitted entirely when no faults were
// injected, keeping fault-free manifests identical to v1 apart from the
// schema string).
type FaultsSection struct {
	Seed     uint64 `json:"seed"`
	Schedule string `json:"schedule"`
	// Completeness is observed data over expected data, in (0, 1].
	Completeness float64 `json:"completeness"`
	Degraded     bool    `json:"degraded"`

	DropWindows    int `json:"drop_windows,omitempty"`
	DroppedSamples int `json:"dropped_samples,omitempty"`
	StuckWindows   int `json:"stuck_windows,omitempty"`
	GlitchNaN      int `json:"glitch_nan,omitempty"`
	GlitchSpike    int `json:"glitch_spike,omitempty"`
	NodesDropped   int `json:"nodes_dropped,omitempty"`
}

// Manifest ties one command invocation to everything needed to
// reproduce and audit it: the exact configuration, per-phase wall
// times, and the final metric snapshot. Each figure or table recorded
// in EXPERIMENTS.md references the manifest of the run that produced
// it.
type Manifest struct {
	Schema    string   `json:"schema"`
	Command   string   `json:"command"`
	Args      []string `json:"args"`
	Version   string   `json:"version"`
	GoVersion string   `json:"go_version"`

	Start       time.Time `json:"start"`
	End         time.Time `json:"end"`
	DurationSec float64   `json:"duration_sec"`

	// Config is the command's effective configuration (seed, resolution,
	// replicate counts, ...).
	Config map[string]any `json:"config"`
	// Phases are the tracer's aggregated span timings (empty when
	// tracing was disabled).
	Phases []PhaseTiming `json:"phases"`
	// TraceDropped counts ring-buffer overwrites; nonzero means Phases
	// undercounts early spans.
	TraceDropped int64 `json:"trace_dropped,omitempty"`
	// Metrics is the final snapshot of the default registry.
	Metrics Snapshot `json:"metrics"`
	// Faults describes injected faults and data completeness (v2; nil
	// for fault-free runs and all v1 manifests).
	Faults *FaultsSection `json:"faults,omitempty"`

	// Status is how the run ended: one of the Status* constants (v3;
	// empty in older manifests).
	Status string `json:"status,omitempty"`
	// Exec is the execution-control envelope (v3; nil when no timeout,
	// checkpoint or signal was involved).
	Exec *ExecSection `json:"exec,omitempty"`
}

// WriteJSON writes the manifest as indented JSON.
func (m *Manifest) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}

// ReadManifest parses a manifest written by this or an earlier version
// of the tool. It accepts the current v3 schema, the v2 schema (no
// status/exec) and the v1 schema (additionally no faults
// section); any other schema string — or an older schema carrying
// newer-schema sections — is an error.
func ReadManifest(r io.Reader) (*Manifest, error) {
	var m Manifest
	dec := json.NewDecoder(r)
	if err := dec.Decode(&m); err != nil {
		return nil, fmt.Errorf("obs: parsing manifest: %w", err)
	}
	switch m.Schema {
	case ManifestSchema:
		if m.Status != "" {
			switch m.Status {
			case StatusOK, StatusInterrupted, StatusTimeout, StatusFailed:
			default:
				return nil, fmt.Errorf("obs: unknown manifest status %q", m.Status)
			}
		}
	case ManifestSchemaV2:
		if m.Status != "" || m.Exec != nil {
			return nil, fmt.Errorf("obs: %s manifest carries v3 sections", ManifestSchemaV2)
		}
	case ManifestSchemaV1:
		if m.Status != "" || m.Exec != nil {
			return nil, fmt.Errorf("obs: %s manifest carries v3 sections", ManifestSchemaV1)
		}
		if m.Faults != nil {
			return nil, fmt.Errorf("obs: %s manifest carries a v2 faults section", ManifestSchemaV1)
		}
	default:
		return nil, fmt.Errorf("obs: unsupported manifest schema %q (want %s, %s or %s)",
			m.Schema, ManifestSchema, ManifestSchemaV2, ManifestSchemaV1)
	}
	return &m, nil
}

var (
	versionOnce sync.Once
	versionStr  string
)

// Version identifies the built source: the module build info's VCS
// revision when the binary was built with VCS stamping, otherwise the
// output of `git describe --always --dirty`, otherwise "unknown".
func Version() string {
	versionOnce.Do(func() {
		versionStr = detectVersion()
	})
	return versionStr
}

func detectVersion() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, modified string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				modified = s.Value
			}
		}
		if rev != "" {
			if len(rev) > 12 {
				rev = rev[:12]
			}
			if modified == "true" {
				rev += "-dirty"
			}
			return rev
		}
	}
	// go test and -buildvcs=off binaries carry no VCS stamp; fall back
	// to asking git directly.
	out, err := exec.Command("git", "describe", "--always", "--dirty").Output()
	if err == nil {
		if v := strings.TrimSpace(string(out)); v != "" {
			return v
		}
	}
	return "unknown"
}

// NewManifest assembles a manifest for a finished run. tracer may be
// nil; metrics come from the default registry, with the runtime gauges
// refreshed first.
func NewManifest(command string, args []string, config map[string]any, start time.Time, tracer *Tracer) *Manifest {
	SampleRuntime()
	end := time.Now()
	m := &Manifest{
		Schema:      ManifestSchema,
		Command:     command,
		Args:        args,
		Version:     Version(),
		GoVersion:   runtime.Version(),
		Start:       start,
		End:         end,
		DurationSec: end.Sub(start).Seconds(),
		Config:      config,
		Metrics:     Default().Snapshot(),
		Status:      StatusOK,
	}
	if tracer != nil {
		m.Phases = tracer.PhaseTimings()
		m.TraceDropped = tracer.Dropped()
	}
	return m
}
