package faults

import (
	"math"
	"strings"
	"testing"

	"nodevar/internal/power"
)

// flatTrace returns n+1 samples at 1 s spacing with constant power.
func flatTrace(t *testing.T, n int, watts float64) *power.Trace {
	t.Helper()
	samples := make([]power.Sample, n+1)
	for i := range samples {
		samples[i] = power.Sample{Time: float64(i), Power: power.Watts(watts)}
	}
	tr, err := power.NewTrace(samples)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestScheduleValidate(t *testing.T) {
	good := Schedule{Seed: 1, SampleDropRate: 0.1, GlitchRate: 0.01, ClockJitter: 0.2}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Schedule{
		{SampleDropRate: -0.1},
		{SampleDropRate: 1.5},
		{StuckRate: 2},
		{GlitchRate: -1},
		{NaNFraction: 1.1},
		{NodeDropRate: -0.5},
		{DropWindowSec: -1},
		{StuckSec: -1},
		{SpikeFactor: -2},
		{QuantizeWatts: -1},
		{ClockJitter: 0.5},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: schedule %+v accepted", i, s)
		}
		if _, _, err := s.Apply(flatTrace(t, 10, 100)); err == nil {
			t.Errorf("case %d: Apply accepted invalid schedule", i)
		}
	}
}

func TestZeroScheduleIsStrictPassThrough(t *testing.T) {
	tr := flatTrace(t, 50, 250)
	s := Schedule{Seed: 99}
	if !s.IsZero() {
		t.Fatal("zero schedule not recognized")
	}
	out, rep, err := s.Apply(tr)
	if err != nil {
		t.Fatal(err)
	}
	if out != tr {
		t.Error("zero schedule copied the trace; want the identical pointer")
	}
	if rep.Injected() {
		t.Errorf("zero schedule reported injections: %+v", rep)
	}
	if rep.Completeness != 1 || rep.SamplesIn != tr.Len() || rep.SamplesOut != tr.Len() {
		t.Errorf("zero-schedule report: %+v", rep)
	}
	if !strings.Contains(rep.Schedule, "no faults") {
		t.Errorf("schedule rendering %q", rep.Schedule)
	}
}

func TestApplyIsDeterministic(t *testing.T) {
	s := Schedule{
		Seed:           7,
		SampleDropRate: 0.02,
		StuckRate:      0.01,
		GlitchRate:     0.01,
		QuantizeWatts:  5,
		ClockJitter:    0.1,
	}
	run := func() (*power.Trace, *Report) {
		out, rep, err := s.Apply(flatTrace(t, 2000, 300))
		if err != nil {
			t.Fatal(err)
		}
		return out, rep
	}
	a, ra := run()
	b, rb := run()
	if a.Len() != b.Len() {
		t.Fatalf("lengths differ: %d vs %d", a.Len(), b.Len())
	}
	for i, sa := range a.Samples() {
		sb := b.Samples()[i]
		// NaN != NaN, so compare bit patterns.
		if sa.Time != sb.Time ||
			math.Float64bits(float64(sa.Power)) != math.Float64bits(float64(sb.Power)) {
			t.Fatalf("sample %d differs: %+v vs %+v", i, sa, sb)
		}
	}
	if *ra != *rb {
		t.Fatalf("reports differ:\n%v\nvs\n%v", ra, rb)
	}
	if ra.String() != rb.String() {
		t.Fatal("report renderings differ")
	}
	// A different seed must produce a different corruption.
	s.Seed = 8
	c, _, err := s.Apply(flatTrace(t, 2000, 300))
	if err != nil {
		t.Fatal(err)
	}
	same := c.Len() == a.Len()
	if same {
		for i, sa := range a.Samples() {
			sc := c.Samples()[i]
			if sa.Time != sc.Time ||
				math.Float64bits(float64(sa.Power)) != math.Float64bits(float64(sc.Power)) {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("seeds 7 and 8 produced identical corruption")
	}
}

func TestDropWindows(t *testing.T) {
	tr := flatTrace(t, 1000, 200)
	s := Schedule{Seed: 3, SampleDropRate: 0.01, DropWindowSec: 5}
	out, rep, err := s.Apply(tr)
	if err != nil {
		t.Fatal(err)
	}
	if rep.DropWindows == 0 || rep.DroppedSamples == 0 {
		t.Fatalf("no drops landed: %+v", rep)
	}
	if out.Len() != tr.Len()-rep.DroppedSamples {
		t.Errorf("len %d, want %d - %d", out.Len(), tr.Len(), rep.DroppedSamples)
	}
	if out.Start() != tr.Start() || out.End() != tr.End() {
		t.Error("trace span not preserved")
	}
	if rep.Completeness >= 1 || rep.Completeness <= 0 {
		t.Errorf("completeness = %v", rep.Completeness)
	}
	// The gap-tolerant query must see the injected gaps.
	_, q, err := out.EnergyBetweenTolerant(out.Start(), out.End(), 1.5)
	if err != nil {
		t.Fatal(err)
	}
	if q.Gaps == 0 || q.Completeness >= 1 {
		t.Errorf("tolerant query missed injected gaps: %+v", q)
	}
	if math.Abs(q.Completeness-rep.Completeness) > 0.02 {
		t.Errorf("report completeness %v vs measured %v", rep.Completeness, q.Completeness)
	}
}

func TestStuckWindows(t *testing.T) {
	// A ramp makes frozen readings visible.
	samples := make([]power.Sample, 501)
	for i := range samples {
		samples[i] = power.Sample{Time: float64(i), Power: power.Watts(100 + i)}
	}
	tr, err := power.NewTrace(samples)
	if err != nil {
		t.Fatal(err)
	}
	s := Schedule{Seed: 11, StuckRate: 0.02, StuckSec: 10}
	out, rep, err := s.Apply(tr)
	if err != nil {
		t.Fatal(err)
	}
	if rep.StuckWindows == 0 || rep.StuckSamples == 0 {
		t.Fatalf("no stuck windows landed: %+v", rep)
	}
	if out.Len() != tr.Len() {
		t.Error("stuck injection changed the sample count")
	}
	// Count repeated consecutive values: must be at least StuckSamples.
	repeats := 0
	prev := out.Samples()[0].Power
	for _, smp := range out.Samples()[1:] {
		if smp.Power == prev {
			repeats++
		}
		prev = smp.Power
	}
	if repeats < rep.StuckSamples {
		t.Errorf("found %d repeated readings, report says %d stuck", repeats, rep.StuckSamples)
	}
}

func TestGlitches(t *testing.T) {
	tr := flatTrace(t, 500, 100)
	allNaN := Schedule{Seed: 5, GlitchRate: 0.05, NaNFraction: 1}
	out, rep, err := allNaN.Apply(tr)
	if err != nil {
		t.Fatal(err)
	}
	if rep.GlitchNaN == 0 || rep.GlitchSpike != 0 {
		t.Fatalf("NaN-only glitches: %+v", rep)
	}
	nans := 0
	for _, smp := range out.Samples() {
		if math.IsNaN(float64(smp.Power)) {
			nans++
		}
	}
	if nans != rep.GlitchNaN {
		t.Errorf("%d NaN samples, report says %d", nans, rep.GlitchNaN)
	}
	// Sanitize recovers the trace and reports exactly the NaN count.
	clean, dropped, err := out.Sanitize()
	if err != nil {
		t.Fatal(err)
	}
	if dropped != nans {
		t.Errorf("Sanitize dropped %d, want %d", dropped, nans)
	}
	if clean.Len() != out.Len()-nans {
		t.Errorf("clean len %d", clean.Len())
	}

	allSpike := Schedule{Seed: 5, GlitchRate: 0.05, SpikeFactor: 4, NaNFraction: 1e-308}
	out2, rep2, err := allSpike.Apply(tr)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.GlitchSpike == 0 || rep2.GlitchNaN != 0 {
		t.Fatalf("spike-only glitches: %+v", rep2)
	}
	spikes := 0
	for _, smp := range out2.Samples() {
		if smp.Power == 400 {
			spikes++
		}
	}
	if spikes != rep2.GlitchSpike {
		t.Errorf("%d spikes, report says %d", spikes, rep2.GlitchSpike)
	}
}

func TestQuantization(t *testing.T) {
	samples := make([]power.Sample, 101)
	for i := range samples {
		samples[i] = power.Sample{Time: float64(i), Power: power.Watts(100 + 0.37*float64(i))}
	}
	tr, _ := power.NewTrace(samples)
	s := Schedule{Seed: 2, QuantizeWatts: 10}
	out, rep, err := s.Apply(tr)
	if err != nil {
		t.Fatal(err)
	}
	if rep.QuantizedSamples != tr.Len() {
		t.Errorf("quantized %d of %d", rep.QuantizedSamples, tr.Len())
	}
	for _, smp := range out.Samples() {
		if v := float64(smp.Power); math.Abs(v-math.Round(v/10)*10) > 1e-9 {
			t.Fatalf("reading %v not on a 10 W grid", v)
		}
	}
}

func TestClockJitter(t *testing.T) {
	tr := flatTrace(t, 500, 100)
	s := Schedule{Seed: 13, ClockJitter: 0.2}
	out, rep, err := s.Apply(tr)
	if err != nil {
		t.Fatal(err)
	}
	if rep.JitteredSamples == 0 {
		t.Fatal("no timestamps moved")
	}
	if out.Len() != tr.Len() {
		t.Error("jitter changed the sample count")
	}
	if out.Start() != tr.Start() || out.End() != tr.End() {
		t.Error("jitter moved the endpoints")
	}
	prev := out.Samples()[0].Time
	for i, smp := range out.Samples()[1:] {
		if smp.Time <= prev {
			t.Fatalf("timestamps not strictly increasing at %d: %v after %v", i+1, smp.Time, prev)
		}
		prev = smp.Time
	}
}

// TestComposability: enabling the drop injector must not change which
// samples the glitch injector corrupts — the streams are independent.
func TestComposability(t *testing.T) {
	tr := flatTrace(t, 1000, 100)
	glitchOnly := Schedule{Seed: 21, GlitchRate: 0.02, NaNFraction: 1e-308, SpikeFactor: 4}
	both := glitchOnly
	both.SampleDropRate = 0.01

	a, repA, err := glitchOnly.Apply(tr)
	if err != nil {
		t.Fatal(err)
	}
	b, repB, err := both.Apply(tr)
	if err != nil {
		t.Fatal(err)
	}
	if repA.GlitchSpike != repB.GlitchSpike {
		t.Fatalf("glitch count changed when drops enabled: %d vs %d",
			repA.GlitchSpike, repB.GlitchSpike)
	}
	// Every sample that survived the drops must carry the same reading
	// as in the glitch-only run.
	byTime := map[float64]power.Watts{}
	for _, smp := range a.Samples() {
		byTime[smp.Time] = smp.Power
	}
	for _, smp := range b.Samples() {
		want, ok := byTime[smp.Time]
		if !ok {
			t.Fatalf("sample at %v absent from glitch-only run", smp.Time)
		}
		if smp.Power != want {
			t.Fatalf("sample at %v: %v vs %v", smp.Time, smp.Power, want)
		}
	}
}

func TestNodeOutages(t *testing.T) {
	s := Schedule{Seed: 17, NodeDropRate: 0.3}
	a := s.NodeOutages(100, 3600)
	b := s.NodeOutages(100, 3600)
	if len(a) == 0 {
		t.Fatal("no outages drawn at rate 0.3")
	}
	if len(a) != len(b) {
		t.Fatalf("non-deterministic outage count: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("outage %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	for _, o := range a {
		if o.At < 0.1*3600 || o.At > 0.9*3600 {
			t.Errorf("outage at %v outside the middle 80%%", o.At)
		}
	}
	// Per-node stream consumption is fixed: a smaller machine's outages
	// are a prefix-filter of a larger one's.
	small := s.NodeOutages(50, 3600)
	var prefix []Outage
	for _, o := range a {
		if o.Node < 50 {
			prefix = append(prefix, o)
		}
	}
	if len(small) != len(prefix) {
		t.Fatalf("n=50 outages %d != filtered n=100 %d", len(small), len(prefix))
	}
	for i := range small {
		if small[i] != prefix[i] {
			t.Fatalf("outage %d: %+v vs %+v", i, small[i], prefix[i])
		}
	}

	if out := (Schedule{Seed: 17}).NodeOutages(100, 3600); out != nil {
		t.Errorf("zero rate produced outages: %v", out)
	}
	full := Schedule{Seed: 17, NodeDropRate: 1}
	if out := full.NodeOutages(10, 100); len(out) != 10 {
		t.Errorf("rate 1 dropped %d of 10 nodes", len(out))
	}
}

func TestReportRendering(t *testing.T) {
	a := &Report{Seed: 1, Schedule: "seed=1", Completeness: 0.8, DroppedSamples: 8, GlitchNaN: 1, NodesDropped: 2}
	if !a.Injected() {
		t.Error("report with drops not flagged as injected")
	}
	text := a.String()
	for _, want := range []string{"dropped: 8 samples", "completeness: 0.8000", "1 NaN"} {
		if !strings.Contains(text, want) {
			t.Errorf("rendering missing %q:\n%s", want, text)
		}
	}
}

func TestScheduleString(t *testing.T) {
	s := Schedule{Seed: 42, SampleDropRate: 0.01, ClockJitter: 0.1}
	got := s.String()
	for _, want := range []string{"seed=42", "drop=0.01", "jitter=0.1"} {
		if !strings.Contains(got, want) {
			t.Errorf("String() = %q missing %q", got, want)
		}
	}
	if strings.Contains(got, "stuck") {
		t.Errorf("String() = %q renders zero entries", got)
	}
}
