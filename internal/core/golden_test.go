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
		{Ablation, "c460a1f9dd6807b288bd9af90827617f7751b3d1ab4afec6a62081d1dc512c1a"},
		{Figure3, "11e344de8595970ee3bbd816aa9297ed8c2d81ed9a8872722ccd38be5b132807"},
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
