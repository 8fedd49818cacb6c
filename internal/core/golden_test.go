package core

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// TestBootstrapTablesGolden pins the rendered bytes of the two
// bootstrap-bound experiments at a test-sized replicate count. The
// coverage and robustness tables are pure functions of the seed and the
// RNG kernels, so a change meant to be output-preserving (a faster
// sampler, a new parallel decomposition) must leave these digests alone.
// A deliberate change to the output updates them in the same commit.
func TestBootstrapTablesGolden(t *testing.T) {
	opts := Options{
		Seed:              2015,
		TraceSamples:      800,
		Replicates:        2000,
		MeasurementTrials: 30,
	}
	golden := []struct {
		id   ID
		want string
	}{
		{Ablation, "1dfb9c033b6187d1376187543a0f44a3e628f3b313c617316cef9968c158c5e7"},
		{Figure3, "55ecce12d0db96a75661350c4a6e98c93d1edbc88e86c0bfc3985d11f614140d"},
	}
	for _, g := range golden {
		res, err := Run(g.id, opts)
		if err != nil {
			t.Fatalf("%s: %v", g.id, err)
		}
		h := sha256.New()
		if err := res.Render(h); err != nil {
			t.Fatalf("%s render: %v", g.id, err)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != g.want {
			t.Errorf("%s rendered sha256 = %s, want %s", g.id, got, g.want)
		}
	}
}
