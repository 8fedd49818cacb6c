package checkpoint

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

type demoState struct {
	Done   []int     `json:"done"`
	Hits   []int64   `json:"hits"`
	Widths []float64 `json:"widths"`
}

func demo() demoState {
	return demoState{
		Done:   []int{0, 1, 5, 9},
		Hits:   []int64{12, 0, 99},
		Widths: []float64{0.25, 1.5e-3, 0},
	}
}

// save and load are the file round trip of a command with -checkpoint:
// Encode then WriteFileAtomic, and ReadFile then Decode.
func save(path, kind string, seed, fingerprint uint64, state any) error {
	raw, err := Encode(kind, seed, fingerprint, state)
	if err != nil {
		return err
	}
	return WriteFileAtomic(path, raw)
}

func load(path, kind string, seed, fingerprint uint64, state any) error {
	raw, err := ReadFile(path)
	if err != nil {
		return err
	}
	return Decode(raw, kind, seed, fingerprint, state)
}

func TestSaveLoadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.json")
	want := demo()
	if err := save(path, "demo", 7, 42, want); err != nil {
		t.Fatalf("save: %v", err)
	}
	var got demoState
	if err := load(path, "demo", 7, 42, &got); err != nil {
		t.Fatalf("load: %v", err)
	}
	a, _ := json.Marshal(want)
	b, _ := json.Marshal(got)
	if string(a) != string(b) {
		t.Fatalf("round trip changed state:\n saved %s\nloaded %s", a, b)
	}
}

func TestSaveReplacesAtomically(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.json")
	if err := save(path, "demo", 1, 1, demoState{Done: []int{1}}); err != nil {
		t.Fatal(err)
	}
	if err := save(path, "demo", 1, 1, demoState{Done: []int{1, 2}}); err != nil {
		t.Fatal(err)
	}
	var got demoState
	if err := load(path, "demo", 1, 1, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Done) != 2 {
		t.Fatalf("got %v, want the second save", got.Done)
	}
	// No leftover temp files.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory holds %d entries, want 1 (temp file leaked?)", len(entries))
	}
}

func TestLoadRejectsMismatches(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.json")
	if err := save(path, "demo", 7, 42, demo()); err != nil {
		t.Fatal(err)
	}
	var s demoState
	for _, tc := range []struct {
		name              string
		kind              string
		seed, fingerprint uint64
	}{
		{"wrong kind", "other", 7, 42},
		{"wrong seed", "demo", 8, 42},
		{"wrong fingerprint", "demo", 7, 43},
	} {
		err := load(path, tc.kind, tc.seed, tc.fingerprint, &s)
		if !errors.Is(err, ErrMismatch) {
			t.Errorf("%s: err = %v, want ErrMismatch", tc.name, err)
		}
	}
}

func TestLoadRejectsCorruption(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ck.json")
	if err := save(path, "demo", 7, 42, demo()); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Every non-whitespace single-byte flip must fail loudly: either the
	// JSON breaks, the schema string changes, or the checksum catches it.
	// Whitespace bytes are outside the checksummed content by design —
	// reformatting a checkpoint is harmless.
	flipped := 0
	for i, b := range raw {
		if b == ' ' || b == '\n' || b == '\t' || b == '\r' {
			continue
		}
		mut := append([]byte(nil), raw...)
		mut[i] = b ^ 0x01
		p := filepath.Join(dir, "mut.json")
		if err := os.WriteFile(p, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		var s demoState
		if err := load(p, "demo", 7, 42, &s); err == nil {
			t.Fatalf("byte flip at offset %d (%q -> %q) loaded cleanly", i, b, mut[i])
		}
		flipped++
	}
	if flipped == 0 {
		t.Fatal("no bytes flipped; test is vacuous")
	}

	// Truncation at any point must fail too.
	for _, cut := range []int{0, 1, len(raw) / 2, len(raw) - 2} {
		p := filepath.Join(dir, "trunc.json")
		if err := os.WriteFile(p, raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		var s demoState
		err := load(p, "demo", 7, 42, &s)
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("truncation to %d bytes: err = %v, want ErrCorrupt", cut, err)
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	want := demo()
	raw, err := Encode("demo", 7, 42, want)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	var got demoState
	if err := Decode(raw, "demo", 7, 42, &got); err != nil {
		t.Fatalf("Decode: %v", err)
	}
	a, _ := json.Marshal(want)
	b, _ := json.Marshal(got)
	if string(a) != string(b) {
		t.Fatalf("round trip changed state:\n encoded %s\n decoded %s", a, b)
	}
	// A file holds exactly the envelope bytes: a checkpoint streamed over
	// the network and one written to disk are interchangeable.
	path := filepath.Join(t.TempDir(), "ck.json")
	if err := WriteFileAtomic(path, raw); err != nil {
		t.Fatal(err)
	}
	onDisk, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(onDisk) != string(raw) {
		t.Error("ReadFile bytes differ from the written envelope")
	}
	// Decode enforces the kind/seed/fingerprint stamps and integrity.
	if err := Decode(raw, "other", 7, 42, &got); !errors.Is(err, ErrMismatch) {
		t.Errorf("wrong kind: err = %v, want ErrMismatch", err)
	}
	if err := Decode(raw[:len(raw)/2], "demo", 7, 42, &got); !errors.Is(err, ErrCorrupt) {
		t.Errorf("truncated bytes: err = %v, want ErrCorrupt", err)
	}
}

// TestNoTornPrefixLoadable is the crash-durability contract on the read
// side: a write torn at any byte — the failure mode the fsync-before-
// rename discipline exists to prevent, and the one a dying worker host
// would otherwise hand its successor — must never load as a valid
// checkpoint. Every strict prefix of a real checkpoint file is tried.
func TestNoTornPrefixLoadable(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ck.json")
	if err := save(path, "demo", 7, 42, demo()); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	full, _ := json.Marshal(demo())
	torn := filepath.Join(dir, "torn.json")
	for cut := 0; cut < len(raw); cut++ {
		if err := os.WriteFile(torn, raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		var s demoState
		if err := load(torn, "demo", 7, 42, &s); err == nil {
			// A prefix may load only if it is merely missing trailing
			// whitespace, i.e. it decodes to exactly the full state —
			// anything else is a torn checkpoint leaking through.
			got, _ := json.Marshal(s)
			if string(got) != string(full) {
				t.Fatalf("prefix of %d/%d bytes loaded as partial state %s", cut, len(raw), got)
			}
		}
	}
}

// TestLoadMissingFile: a checkpoint file that does not exist yet is no
// progress, not an error — ReadFile returns no bytes, which a study
// reads as a fresh start.
func TestLoadMissingFile(t *testing.T) {
	raw, err := ReadFile(filepath.Join(t.TempDir(), "absent.json"))
	if err != nil || raw != nil {
		t.Fatalf("ReadFile(missing) = %q, %v; want nil, nil", raw, err)
	}
	// Any other read failure is reported: a directory is not a checkpoint.
	if _, err := ReadFile(t.TempDir()); err == nil {
		t.Error("ReadFile of a directory succeeded")
	}
}

func TestLoadRejectsWrongSchema(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.json")
	if err := save(path, "demo", 1, 1, demo()); err != nil {
		t.Fatal(err)
	}
	raw, _ := os.ReadFile(path)
	mut := strings.Replace(string(raw), Schema, "nodevar/checkpoint/v999", 1)
	if err := os.WriteFile(path, []byte(mut), 0o644); err != nil {
		t.Fatal(err)
	}
	var s demoState
	err := load(path, "demo", 1, 1, &s)
	if !errors.Is(err, ErrCorrupt) {
		t.Errorf("err = %v, want ErrCorrupt for unknown schema", err)
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	base := func() *Fingerprint {
		return NewFingerprint().Int(3, 5, 10).Float64(0.80, 0.95).Bool(false).String("lrz")
	}
	ref := base().Sum()
	if base().Sum() != ref {
		t.Fatal("fingerprint not deterministic")
	}
	for name, fp := range map[string]*Fingerprint{
		"int changed":    NewFingerprint().Int(3, 5, 11).Float64(0.80, 0.95).Bool(false).String("lrz"),
		"float changed":  NewFingerprint().Int(3, 5, 10).Float64(0.80, 0.951).Bool(false).String("lrz"),
		"bool changed":   NewFingerprint().Int(3, 5, 10).Float64(0.80, 0.95).Bool(true).String("lrz"),
		"string changed": NewFingerprint().Int(3, 5, 10).Float64(0.80, 0.95).Bool(false).String("lr z"),
		"order changed":  NewFingerprint().Int(5, 3, 10).Float64(0.80, 0.95).Bool(false).String("lrz"),
	} {
		if fp.Sum() == ref {
			t.Errorf("%s: fingerprint collision with reference", name)
		}
	}
	// Length prefixing: ("ab","c") must differ from ("a","bc").
	a := NewFingerprint().String("ab").String("c").Sum()
	b := NewFingerprint().String("a").String("bc").Sum()
	if a == b {
		t.Error("adjacent strings alias without length prefixing")
	}
}
