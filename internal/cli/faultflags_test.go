package cli

import (
	"strings"
	"testing"

	"nodevar/internal/faults"
)

func TestParseFaultSpec(t *testing.T) {
	cases := []struct {
		spec    string
		want    faults.Schedule
		wantErr bool
	}{
		{spec: "", want: faults.Schedule{}},
		{spec: "   ", want: faults.Schedule{}},
		{
			spec: "seed=7,drop=0.01",
			want: faults.Schedule{Seed: 7, SampleDropRate: 0.01},
		},
		{
			spec: "seed=9 glitch=0.02 spike=6 nanfrac=0.25",
			want: faults.Schedule{Seed: 9, GlitchRate: 0.02, SpikeFactor: 6, NaNFraction: 0.25},
		},
		{
			spec: "dropwin=2.5,stuck=0.01,stucksec=20,quant=10,jitter=0.3,nodedrop=0.1",
			want: faults.Schedule{
				DropWindowSec: 2.5, StuckRate: 0.01, StuckSec: 20,
				QuantizeWatts: 10, ClockJitter: 0.3, NodeDropRate: 0.1,
			},
		},
		{spec: "bogus=1", wantErr: true},
		{spec: "drop", wantErr: true},
		{spec: "drop=abc", wantErr: true},
		{spec: "seed=-1", wantErr: true},
		{spec: "drop=1.5", wantErr: true}, // schedule validation runs too
		{spec: "jitter=0.9", wantErr: true},
	}
	for _, tc := range cases {
		got, err := ParseFaultSpec(tc.spec)
		if tc.wantErr {
			if err == nil {
				t.Errorf("ParseFaultSpec(%q) accepted", tc.spec)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseFaultSpec(%q): %v", tc.spec, err)
			continue
		}
		if got != tc.want {
			t.Errorf("ParseFaultSpec(%q) = %+v, want %+v", tc.spec, got, tc.want)
		}
	}
}

// A printed non-zero schedule must parse back to itself, so the
// manifest's schedule string is sufficient to replay a run.
func TestParseFaultSpecRoundTrip(t *testing.T) {
	s := faults.Schedule{
		Seed: 42, SampleDropRate: 0.02, DropWindowSec: 5, StuckRate: 0.01,
		GlitchRate: 0.005, SpikeFactor: 4, NaNFraction: 0.5, QuantizeWatts: 10,
		ClockJitter: 0.2, NodeDropRate: 0.1,
	}
	back, err := ParseFaultSpec(s.String())
	if err != nil {
		t.Fatal(err)
	}
	if back != s {
		t.Errorf("round trip:\n got %+v\nwant %+v", back, s)
	}
}

// meterdrop, retries and backoff name no fault class the pipeline can
// inject, so the parser rejects them like any other unknown key instead
// of accepting a silent no-op.
func TestParseFaultSpecRejectsMeterDropoutKeys(t *testing.T) {
	for _, spec := range []string{"meterdrop=0.05", "retries=3", "backoff=0.1", "drop=0.02,meterdrop=0.05"} {
		_, err := ParseFaultSpec(spec)
		if err == nil {
			t.Errorf("ParseFaultSpec(%q) accepted", spec)
			continue
		}
		if !strings.Contains(err.Error(), "unknown fault spec key") {
			t.Errorf("ParseFaultSpec(%q) = %v, want an unknown-key error", spec, err)
		}
	}
}
