// Package checkpoint persists long-running experiment progress so an
// interrupted run can resume bit-identically.
//
// A checkpoint is a small JSON envelope wrapping an opaque,
// caller-defined payload. The envelope stamps everything needed to
// refuse a wrong resume: a schema version, a kind string naming the
// producer, the experiment seed, and a fingerprint of the producing
// configuration. A CRC-32 checksum over the identifying fields and the
// payload makes corruption and truncation loud — a damaged checkpoint
// errors on load, it never silently yields partial state.
//
// The envelope is bytes first: Encode and Decode translate between a
// state value and the stamped, checksummed envelope, and a study only
// ever takes and emits those bytes. Where they go is the caller's
// choice — internal/dist streams them between workers, and the two
// commands with a -checkpoint flag keep them in a file through the only
// file code here: WriteFileAtomic and ReadFile. Writes are atomic and
// durable (temp file + fsync + rename in the destination directory, then
// an fsync of the directory itself), so a crash mid-write — including a
// whole-host crash that loses the page cache — leaves either the
// previous checkpoint or the new one, never a torn file.
package checkpoint

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// Schema identifies the envelope layout; bump on breaking changes.
const Schema = "nodevar/checkpoint/v1"

// Sentinel errors, wrapped by Decode with detail. Callers distinguish
// "this checkpoint is damaged" (ErrCorrupt) from "this checkpoint is
// healthy but belongs to a different run" (ErrMismatch); only the
// latter is a usage error.
var (
	ErrCorrupt  = errors.New("checkpoint: corrupt or truncated")
	ErrMismatch = errors.New("checkpoint: does not match this run")
)

// Envelope is the on-disk checkpoint format. Payload is the producer's
// own JSON state, stored as bytes (base64 in the JSON encoding) so that
// re-indenting the envelope can never alter the checksummed content.
type Envelope struct {
	Schema      string `json:"schema"`
	Kind        string `json:"kind"`
	Seed        uint64 `json:"seed"`
	Fingerprint uint64 `json:"fingerprint"`
	Payload     []byte `json:"payload"`
	Checksum    uint32 `json:"checksum"`
}

// checksum covers every field that identifies and carries state, in a
// fixed order, so any single-byte change to kind, stamps or payload
// changes the sum.
func checksum(kind string, seed, fingerprint uint64, payload []byte) uint32 {
	h := crc32.NewIEEE()
	fmt.Fprintf(h, "%s|%d|%d|", kind, seed, fingerprint)
	h.Write(payload)
	return h.Sum32()
}

// Encode marshals state into a stamped, checksummed envelope and
// returns the envelope bytes; Decode on the receiving side verifies
// them, whether they crossed a network or a file.
func Encode(kind string, seed, fingerprint uint64, state any) ([]byte, error) {
	payload, err := json.Marshal(state)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: marshaling %s state: %w", kind, err)
	}
	env := Envelope{
		Schema:      Schema,
		Kind:        kind,
		Seed:        seed,
		Fingerprint: fingerprint,
		Payload:     payload,
		Checksum:    checksum(kind, seed, fingerprint, payload),
	}
	raw, err := json.MarshalIndent(&env, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("checkpoint: marshaling envelope: %w", err)
	}
	return append(raw, '\n'), nil
}

// Decode verifies envelope bytes (integrity, then the kind/seed/
// fingerprint stamps) and unmarshals the payload into state:
// ErrCorrupt for damaged bytes, ErrMismatch for a healthy envelope that
// belongs to a different run.
func Decode(raw []byte, kind string, seed, fingerprint uint64, state any) error {
	env, err := decode(raw)
	if err != nil {
		return err
	}
	if env.Kind != kind {
		return fmt.Errorf("%w: kind %q, want %q", ErrMismatch, env.Kind, kind)
	}
	if env.Seed != seed {
		return fmt.Errorf("%w: seed %d, want %d", ErrMismatch, env.Seed, seed)
	}
	if env.Fingerprint != fingerprint {
		return fmt.Errorf("%w: config fingerprint %d, want %d (the run's configuration changed)",
			ErrMismatch, env.Fingerprint, fingerprint)
	}
	if err := json.Unmarshal(env.Payload, state); err != nil {
		return fmt.Errorf("%w: payload does not decode: %v", ErrCorrupt, err)
	}
	return nil
}

// WriteFileAtomic replaces path with the envelope bytes raw. An existing
// file is replaced only once the new bytes are fully on disk: the temp
// file is fsynced before the rename and the parent directory after it,
// so a host crash at any instant leaves a readable checkpoint (old or
// new), never a torn one.
func WriteFileAtomic(path string, raw []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("checkpoint: creating temp file: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(raw); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("checkpoint: writing %s: %w", tmpName, err)
	}
	// Sync file content before the rename: the rename must never become
	// visible ahead of the bytes it names, or a crash between the two
	// yields a torn checkpoint under the final path.
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("checkpoint: syncing %s: %w", tmpName, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("checkpoint: closing %s: %w", tmpName, err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("checkpoint: replacing %s: %w", path, err)
	}
	// Sync the directory so the rename itself survives a host crash.
	// Some filesystems refuse fsync on directories; a checkpoint that is
	// merely less durable there is still atomic, so only real sync
	// failures are reported.
	if d, err := os.Open(dir); err == nil {
		serr := d.Sync()
		d.Close()
		if serr != nil && !errors.Is(serr, errors.ErrUnsupported) {
			return fmt.Errorf("checkpoint: syncing directory %s: %w", dir, serr)
		}
	}
	return nil
}

// ReadFile returns the envelope bytes WriteFileAtomic left at path, for
// Decode (or a study's ResumeData) to verify. A missing file is no
// progress yet: ReadFile returns nil bytes and no error.
func ReadFile(path string) ([]byte, error) {
	raw, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("checkpoint: reading %s: %w", path, err)
	}
	return raw, nil
}

// decode parses and integrity-checks an envelope without judging whose
// run it belongs to. Split from Decode so the fuzz target can drive it on
// raw bytes.
func decode(raw []byte) (*Envelope, error) {
	var env Envelope
	if err := json.Unmarshal(raw, &env); err != nil {
		return nil, fmt.Errorf("%w: not valid JSON: %v", ErrCorrupt, err)
	}
	if env.Schema != Schema {
		return nil, fmt.Errorf("%w: schema %q, want %q", ErrCorrupt, env.Schema, Schema)
	}
	if got := checksum(env.Kind, env.Seed, env.Fingerprint, env.Payload); got != env.Checksum {
		return nil, fmt.Errorf("%w: checksum %08x, recorded %08x", ErrCorrupt, got, env.Checksum)
	}
	return &env, nil
}
