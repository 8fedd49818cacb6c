package meter

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"nodevar/internal/power"
	"nodevar/internal/rng"
)

// irregularTrace is a true trace starting at start with n samples at
// irregular spacing and power in a realistic range.
func irregularTrace(t *testing.T, r *rng.Rand, start float64, n int) *power.Trace {
	t.Helper()
	samples := make([]power.Sample, n)
	x := start
	for i := range samples {
		samples[i] = power.Sample{Time: x, Power: power.Watts(200 + 1800*r.Float64())}
		x += 0.05 + 4*r.Float64()
	}
	tr, err := power.NewTrace(samples)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// instrumentRand returns the rng an instrument draws its readings from.
func instrumentRand(s Sampler) *rng.Rand {
	switch m := s.(type) {
	case *Meter:
		return m.r
	case *WindowedMeter:
		return m.r
	case *OCCMeter:
		return m.r
	}
	panic(fmt.Sprintf("unknown instrument %T", s))
}

// occReference is the OCC accumulation as it was computed before the
// walk streamed it: every bucket collected into a slice first, then
// summed in bucket order. It returns the energy over [a, b].
func occReference(m *OCCMeter, tr *power.Trace, a, b float64) (float64, error) {
	if err := checkWindow(tr, a, b); err != nil {
		return 0, err
	}
	n, err := gridSize(a, b, m.spec.BucketSeconds)
	if err != nil {
		return 0, err
	}
	type bucket struct {
		lo, hi float64
		v      power.Watts
	}
	var bk []bucket
	for i := 0; i < n; i++ {
		lo := a + float64(i)*m.spec.BucketSeconds
		hi := lo + m.spec.BucketSeconds
		if i == n-1 || hi > b {
			hi = b
		}
		avg, err := tr.AverageBetween(lo, hi)
		if err != nil {
			return 0, err
		}
		v := float64(avg) * m.gain
		if f := m.spec.EnvelopeFrac; f > 0 {
			v *= 1 + (2*m.r.Float64()-1)*f
		}
		if q := m.spec.ReadoutResolutionWatts; q > 0 {
			v = math.Round(v/q) * q
		}
		if v <= 0 {
			v = 0
		}
		bk = append(bk, bucket{lo: lo, hi: hi, v: power.Watts(v)})
	}
	var sum float64
	for _, k := range bk {
		sum += float64(k.v) * (k.hi - k.lo)
	}
	return sum, nil
}

// referenceAverage is what an instrument's average was built from before
// it streamed: the reported trace's Average for the sampling meters, the
// collected buckets for OCC.
func referenceAverage(s Sampler, tr *power.Trace, a, b float64) (power.Watts, error) {
	if occ, ok := s.(*OCCMeter); ok {
		e, err := occReference(occ, tr, a, b)
		if err != nil {
			return 0, err
		}
		return power.Watts(e / (b - a)), nil
	}
	measured, err := s.Measure(tr, a, b)
	if err != nil {
		return 0, err
	}
	return measured.Average()
}

// streamModels spans the three architectures across periods, windows,
// phases, noise, gain error and quantization.
var streamModels = []Model{
	Spec{SamplePeriod: 1},
	Spec{GainErrorCV: 0.01, NoiseCV: 0.005, SamplePeriod: 0.7},
	Spec{NoiseCV: 0.02, ResolutionWatts: 5, SamplePeriod: 2.5},
	Spec{GainErrorCV: 0.002, SamplePeriod: 13},
	WindowedSpec{Period: 1},
	WindowedSpec{Period: 0.5, Window: 0.2, PhaseJitter: true, NoiseCV: 0.01},
	WindowedSpec{Period: 3, Window: 3, GainErrorCV: 0.01, ResolutionWatts: 2},
	WindowedSpec{Period: 40, Window: 1, PhaseJitter: true, NoiseCV: 0.003},
	OCCSpec{BucketSeconds: 1},
	OCCSpec{BucketSeconds: 0.25, GainErrorCV: 0.01, EnvelopeFrac: 0.02, ReadoutResolutionWatts: 1},
	OCCSpec{BucketSeconds: 7, EnvelopeFrac: 0.05},
}

// checkStreamed runs one window through two instruments drawn from one
// seed, one streamed and one trace-built, and fails unless they agree
// bit for bit on the average (and, for OCC, the energy), on the error,
// on the instrument counts and on the rng state left behind.
func checkStreamed(t *testing.T, model Model, seed uint64, tr *power.Trace, a, b float64) {
	t.Helper()
	name := fmt.Sprintf("%s %+v seed %d window [%v, %v]", model.ModelName(), model, seed, a, b)
	streamed, err := model.NewInstrument(rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	built, err := model.NewInstrument(rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	m0, s0 := mMeasures.Value(), mSamples.Value()
	got, gotErr := streamed.AveragePower(tr, a, b)
	m1, s1 := mMeasures.Value(), mSamples.Value()
	want, wantErr := referenceAverage(built, tr, a, b)
	m2, s2 := mMeasures.Value(), mSamples.Value()

	if !sameErr(gotErr, wantErr) {
		t.Fatalf("%s: error %v, want %v", name, gotErr, wantErr)
	}
	if math.Float64bits(float64(got)) != math.Float64bits(float64(want)) {
		t.Fatalf("%s: streamed %v, trace-built %v", name, got, want)
	}
	if m1-m0 != m2-m1 || s1-s0 != s2-s1 {
		t.Fatalf("%s: counted %d measures/%d samples, want %d/%d", name, m1-m0, s1-s0, m2-m1, s2-s1)
	}
	if instrumentRand(streamed).Uint64() != instrumentRand(built).Uint64() {
		t.Fatalf("%s: rng draw order differs", name)
	}
	if _, ok := built.(*OCCMeter); ok {
		streamed, _ = model.NewInstrument(rng.New(seed))
		built, _ = model.NewInstrument(rng.New(seed))
		got, gotErr := streamed.Energy(tr, a, b)
		want, wantErr := occReference(built.(*OCCMeter), tr, a, b)
		if !sameErr(gotErr, wantErr) || math.Float64bits(float64(got)) != math.Float64bits(want) {
			t.Fatalf("%s: streamed energy %v (%v), bucket-built %v (%v)", name, got, gotErr, want, wantErr)
		}
	}
}

func sameErr(a, b error) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.Error() == b.Error()
}

// TestStreamedAverageBitIdentical is the contract behind the streaming
// walks: for every architecture, AveragePower (and OCC Energy) equals the
// value built from a kept trace or bucket list, bit for bit, with the
// same rng draws and instrument counts, over full, random, tiny and
// edge-aligned windows.
func TestStreamedAverageBitIdentical(t *testing.T) {
	r := rng.New(2020)
	for trial := 0; trial < 6; trial++ {
		tr := irregularTrace(t, r, -100+200*r.Float64(), 40+r.Intn(300))
		start, end, span := tr.Start(), tr.End(), tr.Duration()
		windows := [][2]float64{{start, end}, {start + span/3, end}, {start, start + 0.01}}
		for w := 0; w < 5; w++ {
			a := start + r.Float64()*span
			windows = append(windows, [2]float64{a, a + r.Float64()*(end-a)})
		}
		for _, model := range streamModels {
			for _, win := range windows {
				if !(win[0] < win[1]) {
					continue
				}
				checkStreamed(t, model, r.Uint64(), tr, win[0], win[1])
			}
		}
	}
}

// TestStreamedAverageErrors checks that the streamed average fails
// exactly where the trace-built one does, with the same message: empty
// and inverted windows, windows outside the span, grids past
// maxMeasureSamples, and a grid whose times stop increasing because the
// period is below the float spacing at the window's start.
func TestStreamedAverageErrors(t *testing.T) {
	r := rng.New(2021)
	tr := irregularTrace(t, r, 0, 400)
	start, end := tr.Start(), tr.End()
	far, err := power.NewTrace([]power.Sample{{Time: 1e15, Power: 300}, {Time: 1e15 + 2, Power: 500}, {Time: 1e15 + 4, Power: 400}})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		tr   *power.Trace
		a, b float64
		fine bool   // use a pathologically short period
		want string // in the error of every model that fails
	}{
		{"empty", tr, start + 5, start + 5, false, "empty measurement window"},
		{"inverted", tr, start + 9, start + 5, false, "empty measurement window"},
		{"NaN", tr, math.NaN(), end, false, "empty measurement window"},
		{"before span", tr, start - 1, end, false, "outside trace span"},
		{"after span", tr, start, end + 1, false, "outside trace span"},
		{"too many samples", tr, start, end, true, "exceeds"},
		{"non-increasing grid", far, 1e15, 1e15 + 4, false, "non-increasing timestamp"},
	}
	models := []Model{
		Spec{SamplePeriod: 0.05, NoiseCV: 0.01},
		WindowedSpec{Period: 0.05, Window: 0.01},
		OCCSpec{BucketSeconds: 0.05, EnvelopeFrac: 0.01},
	}
	for _, c := range cases {
		for _, model := range models {
			if c.fine {
				switch m := model.(type) {
				case Spec:
					m.SamplePeriod = 1e-9
					model = m
				case WindowedSpec:
					m.Period, m.Window = 1e-9, 0
					model = m
				case OCCSpec:
					m.BucketSeconds = 1e-9
					model = m
				}
			}
			_, isOCC := model.(OCCSpec)
			s, err := model.NewInstrument(rng.New(7))
			if err != nil {
				t.Fatal(err)
			}
			_, gotErr := s.AveragePower(c.tr, c.a, c.b)
			switch {
			case isOCC && c.name == "non-increasing grid":
				// OCC averages its own accumulation, never the log, so
				// only its Measure sees the repeated read-out times.
			case gotErr == nil || !strings.Contains(gotErr.Error(), c.want):
				t.Errorf("%s %s: streamed average error %v, want %q", c.name, model.ModelName(), gotErr, c.want)
			}
			checkStreamed(t, model, 7, c.tr, c.a, c.b)
		}
	}
}

// TestAveragePowerAllocs pins the streaming walk's memory: a periodic
// meter's average allocates the same for a 10-sample and a 10000-sample
// window, and at most once.
func TestAveragePowerAllocs(t *testing.T) {
	tr := flatTrace(t, 500, 10000)
	m, err := New(Spec{NoiseCV: 0.01, ResolutionWatts: 1, SamplePeriod: 1}, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(b float64) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, err := m.AveragePower(tr, 0, b); err != nil {
				t.Fatal(err)
			}
		})
	}
	short, long := allocs(9), allocs(9999)
	if short != long || long > 1 {
		t.Fatalf("AveragePower allocs: %v for 10 samples, %v for 10000; want equal and at most 1", short, long)
	}
}
