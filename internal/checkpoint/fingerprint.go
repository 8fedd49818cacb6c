package checkpoint

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
)

// Fingerprint accumulates a 64-bit FNV-1a digest of the configuration
// values that shape an experiment's output. A checkpoint saved under one
// fingerprint refuses to load under another, so a resume with a changed
// sample-size list, replicate count or confidence level fails fast
// instead of splicing incompatible partial results.
//
// The digest covers values and their order, not field names: callers
// must feed fields in a fixed order and bump their kind string if that
// order ever changes meaning.
type Fingerprint struct {
	h hash.Hash64
}

// NewFingerprint returns an empty fingerprint accumulator.
func NewFingerprint() *Fingerprint {
	return &Fingerprint{h: fnv.New64a()}
}

func (f *Fingerprint) u64(v uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	f.h.Write(buf[:])
}

// Int mixes integers into the digest.
func (f *Fingerprint) Int(vs ...int) *Fingerprint {
	for _, v := range vs {
		f.u64(uint64(v))
	}
	return f
}

// Float64 mixes floats into the digest by their IEEE-754 bit patterns,
// so 0.95 and 0.9500000000000001 fingerprint differently.
func (f *Fingerprint) Float64(vs ...float64) *Fingerprint {
	for _, v := range vs {
		f.u64(math.Float64bits(v))
	}
	return f
}

// Bool mixes a flag into the digest.
func (f *Fingerprint) Bool(b bool) *Fingerprint {
	if b {
		f.u64(1)
	} else {
		f.u64(0)
	}
	return f
}

// String mixes a string into the digest, length-prefixed so adjacent
// strings cannot alias.
func (f *Fingerprint) String(s string) *Fingerprint {
	f.u64(uint64(len(s)))
	f.h.Write([]byte(s))
	return f
}

// Sum returns the accumulated digest.
func (f *Fingerprint) Sum() uint64 {
	return f.h.Sum64()
}
