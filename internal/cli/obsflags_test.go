package cli

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"nodevar/internal/obs"
)

func parseObs(t *testing.T, args ...string) *ObsFlags {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	o := &ObsFlags{}
	o.Register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return o
}

func TestObsFlagDefaults(t *testing.T) {
	o := parseObs(t)
	if o.Verbose || o.LogFormat != "text" || o.TraceOut != "" ||
		o.ManifestOut != "auto" || o.PprofAddr != "" {
		t.Errorf("unexpected defaults: %+v", o)
	}
	if o.manifestPath() != "" {
		t.Errorf("manifest enabled with no other output: %q", o.manifestPath())
	}
}

func TestManifestPathResolution(t *testing.T) {
	cases := []struct {
		manifest, trace, want string
	}{
		{"auto", "", ""},
		{"auto", "t.json", "run-manifest.json"},
		{"none", "t.json", ""},
		{"", "t.json", ""},
		{"custom.json", "", "custom.json"},
	}
	for _, c := range cases {
		o := &ObsFlags{ManifestOut: c.manifest, TraceOut: c.trace}
		if got := o.manifestPath(); got != c.want {
			t.Errorf("manifestPath(%+v) = %q, want %q", c, got, c.want)
		}
	}
}

func TestStartRejectsBadLogFormat(t *testing.T) {
	o := &ObsFlags{LogFormat: "yaml"}
	if _, err := o.Start("test"); err == nil {
		t.Fatal("Start accepted log format yaml")
	}
}

// TestRunFinishWritesArtifacts drives the full flag-to-file path: Start
// installs a tracer, spans and metrics accumulate, Finish writes a
// valid Chrome trace and a run manifest carrying the metrics snapshot.
func TestRunFinishWritesArtifacts(t *testing.T) {
	dir := t.TempDir()
	o := parseObs(t,
		"-v", "-log-format", "json",
		"-trace-out", filepath.Join(dir, "t.json"),
		"-manifest", filepath.Join(dir, "manifest.json"),
	)
	run, err := o.Start("clitest")
	if err != nil {
		t.Fatal(err)
	}
	defer obs.SetTracer(nil)
	if run.Tracer == nil {
		t.Fatal("Start did not install a tracer despite -trace-out")
	}
	if obs.T() != run.Tracer {
		t.Error("Start did not publish the tracer process-wide")
	}

	run.SetConfig("seed", 2015)
	sp := obs.T().Start("experiment", "table1")
	sp.End()
	obs.NewCounter("cli_test.counter").Inc()

	if err := run.Finish(); err != nil {
		t.Fatal(err)
	}

	f, err := os.Open(filepath.Join(dir, "t.json"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := obs.ValidateChromeTrace(f); err != nil {
		t.Errorf("emitted trace invalid: %v", err)
	}

	var m obs.Manifest
	mustUnmarshal(t, filepath.Join(dir, "manifest.json"), &m)
	if m.Schema != obs.ManifestSchema {
		t.Errorf("manifest schema = %q, want %q", m.Schema, obs.ManifestSchema)
	}
	if m.Command != "clitest" {
		t.Errorf("manifest command = %q", m.Command)
	}
	if m.Version == "" {
		t.Error("manifest version empty")
	}
	if m.Metrics.Counters["cli_test.counter"] < 1 {
		t.Errorf("manifest metrics missing counter: %+v", m.Metrics.Counters)
	}
	if m.Metrics.Gauges["runtime.goroutines"] < 1 {
		t.Errorf("manifest runtime gauges not sampled: %+v", m.Metrics.Gauges)
	}
	if v, ok := m.Config["seed"]; !ok || v != float64(2015) {
		t.Errorf("manifest config seed = %v", v)
	}
	found := false
	for _, p := range m.Phases {
		if p.Cat == "experiment" && p.Name == "table1" && p.Count >= 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("manifest phases missing experiment/table1: %+v", m.Phases)
	}
}

func mustUnmarshal(t *testing.T, path string, v any) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}
