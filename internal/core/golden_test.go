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
		{Ablation, "56809af52828a9dd28d49f5303b1aef74597c0204a056c06d27cbd49bf4ab89b"},
		{Figure3, "5286541c71ef74b316f7400445f6109820d1d62a153d6e46daccd052c1109113"},
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
