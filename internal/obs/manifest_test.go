package obs

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// degradedManifest builds the fixed manifest the v2 golden file pins:
// every field deterministic, with a faults section describing a
// degraded run.
func degradedManifest() *Manifest {
	start := time.Date(2026, 2, 3, 10, 0, 0, 0, time.UTC)
	end := start.Add(90 * time.Second)
	return &Manifest{
		Schema:      ManifestSchemaV2,
		Command:     "powersim",
		Args:        []string{"-nodes", "128", "-faults", "seed=7,drop=0.01,meterdrop=0.05"},
		Version:     "test-fixed",
		GoVersion:   "go1.x-fixed",
		Start:       start,
		End:         end,
		DurationSec: 90,
		Config: map[string]any{
			"nodes": 128,
			"seed":  42,
		},
		Phases: []PhaseTiming{
			{Cat: "sim", Name: "run", Count: 1, TotalMS: 80000, MaxMS: 80000},
		},
		Metrics: Snapshot{
			Counters:      map[string]int64{"faults.samples_dropped": 37},
			Gauges:        map[string]float64{},
			FloatCounters: map[string]float64{},
			Histograms:    map[string]HistogramSnapshot{},
		},
		Faults: &FaultsSection{
			Seed:           7,
			Schedule:       "seed=7 drop=0.01 meterdrop=0.05",
			Completeness:   0.9417,
			Degraded:       true,
			DropWindows:    4,
			DroppedSamples: 37,
		},
	}
}

// v1Manifest is the same run without fault injection, as the previous
// schema wrote it.
func v1Manifest() *Manifest {
	m := degradedManifest()
	m.Schema = ManifestSchemaV1
	m.Args = []string{"-nodes", "128"}
	m.Faults = nil
	m.Metrics.Counters = map[string]int64{}
	return m
}

// interruptedManifest builds the fixed manifest the v3 golden file
// pins: a run ended by SIGINT with a checkpoint in play.
func interruptedManifest() *Manifest {
	m := degradedManifest()
	m.Schema = ManifestSchema
	m.Command = "repro"
	m.Args = []string{"-exp", "figure3", "-checkpoint", "fig3.ckpt", "-timeout", "10m"}
	m.Faults = nil
	m.Status = StatusInterrupted
	m.Exec = &ExecSection{
		TimeoutSec: 600,
		Checkpoint: "fig3.ckpt",
		Resumed:    true,
		Signal:     "interrupt",
	}
	return m
}

func goldenPath(name string) string {
	return filepath.Join("testdata", name)
}

func checkGolden(t *testing.T, name string, m *Manifest) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	path := goldenPath(name)
	if *updateGolden {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (rerun with -update to regenerate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("%s drifted from golden file (rerun with -update if intended)\ngot:\n%s\nwant:\n%s",
			name, buf.Bytes(), want)
	}
	return want
}

func TestManifestV3Golden(t *testing.T) {
	data := checkGolden(t, "run-manifest-v3.golden.json", interruptedManifest())

	m, err := ReadManifest(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if m.Schema != ManifestSchema || m.Status != StatusInterrupted {
		t.Errorf("schema %q status %q", m.Schema, m.Status)
	}
	if m.Exec == nil || m.Exec.Signal != "interrupt" || m.Exec.Checkpoint != "fig3.ckpt" ||
		!m.Exec.Resumed || m.Exec.TimeoutSec != 600 {
		t.Errorf("exec section round-trip: %+v", m.Exec)
	}
}

func TestManifestV2BackCompat(t *testing.T) {
	data := checkGolden(t, "run-manifest-v2.golden.json", degradedManifest())

	m, err := ReadManifest(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("v2 manifest no longer readable: %v", err)
	}
	if m.Schema != ManifestSchemaV2 {
		t.Errorf("schema %q", m.Schema)
	}
	if m.Status != "" || m.Exec != nil {
		t.Errorf("v2 manifest grew v3 sections: %+v", m)
	}
	f := m.Faults
	if f == nil {
		t.Fatal("degraded manifest lost its faults section")
	}
	if f.Seed != 7 || !f.Degraded || f.Completeness != 0.9417 ||
		f.DroppedSamples != 37 {
		t.Errorf("faults section round-trip: %+v", f)
	}
	if f.Schedule != "seed=7 drop=0.01 meterdrop=0.05" {
		t.Errorf("schedule %q", f.Schedule)
	}
}

func TestManifestV1BackCompat(t *testing.T) {
	data := checkGolden(t, "run-manifest-v1.golden.json", v1Manifest())

	m, err := ReadManifest(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("v1 manifest no longer readable: %v", err)
	}
	if m.Schema != ManifestSchemaV1 {
		t.Errorf("schema %q", m.Schema)
	}
	if m.Faults != nil {
		t.Errorf("v1 manifest grew a faults section: %+v", m.Faults)
	}
	if m.Command != "powersim" || m.DurationSec != 90 {
		t.Errorf("v1 fields lost: %+v", m)
	}
}

// TestReadManifestIgnoresRetiredKeys: manifests written before the
// meter_* fault counts and the v3 watchdog section were dropped still
// parse, with the retired keys ignored and everything else intact.
func TestReadManifestIgnoresRetiredKeys(t *testing.T) {
	v2 := `{"schema":"nodevar/run-manifest/v2","faults":{"seed":7,"completeness":0.9,"degraded":true,` +
		`"dropped_samples":37,"meter_failures":3,"meter_retries":2,"meter_giveups":1}}`
	m, err := ReadManifest(strings.NewReader(v2))
	if err != nil {
		t.Fatalf("v2 manifest with meter_giveups: %v", err)
	}
	if m.Faults == nil || m.Faults.Seed != 7 || m.Faults.DroppedSamples != 37 {
		t.Errorf("v2 faults section: %+v", m.Faults)
	}
	v3 := `{"schema":"nodevar/run-manifest/v3","status":"interrupted","exec":{"signal":"interrupt"},` +
		`"watchdog":{"phase_deadline_sec":60,"overruns":[{"cat":"sim","name":"run","max_ms":80000,"deadline_ms":60000}]}}`
	m, err = ReadManifest(strings.NewReader(v3))
	if err != nil {
		t.Fatalf("v3 manifest with a watchdog section: %v", err)
	}
	if m.Status != StatusInterrupted || m.Exec == nil || m.Exec.Signal != "interrupt" {
		t.Errorf("v3 manifest: status %q exec %+v", m.Status, m.Exec)
	}
}

func TestReadManifestRejects(t *testing.T) {
	if _, err := ReadManifest(strings.NewReader(`{"schema":"nodevar/run-manifest/v99"}`)); err == nil {
		t.Error("unknown schema accepted")
	}
	if _, err := ReadManifest(strings.NewReader(`{not json`)); err == nil {
		t.Error("malformed JSON accepted")
	}
	v1WithFaults := `{"schema":"nodevar/run-manifest/v1","faults":{"seed":1}}`
	if _, err := ReadManifest(strings.NewReader(v1WithFaults)); err == nil {
		t.Error("v1 manifest with a v2 faults section accepted")
	}
	v2WithStatus := `{"schema":"nodevar/run-manifest/v2","status":"ok"}`
	if _, err := ReadManifest(strings.NewReader(v2WithStatus)); err == nil {
		t.Error("v2 manifest with a v3 status accepted")
	}
	v2WithExec := `{"schema":"nodevar/run-manifest/v2","exec":{"signal":"interrupt"}}`
	if _, err := ReadManifest(strings.NewReader(v2WithExec)); err == nil {
		t.Error("v2 manifest with a v3 exec section accepted")
	}
	v3BadStatus := `{"schema":"nodevar/run-manifest/v3","status":"exploded"}`
	if _, err := ReadManifest(strings.NewReader(v3BadStatus)); err == nil {
		t.Error("v3 manifest with an unknown status accepted")
	}
}
