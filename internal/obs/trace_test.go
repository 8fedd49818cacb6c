package obs

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TraceID returns the span's trace identity (zero outside a request).
func (s *Span) TraceID() TraceID { return s.trace }

// Dropped returns how many spans exceeded the buffer's capacity.
func (b *TraceBuffer) Dropped() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.dropped
}

func TestSpanRecordsEvent(t *testing.T) {
	tr := NewTracer(16)
	sp := tr.Start("experiment", "table1")
	sp.Attr("seed", "2015")
	sp.Attr("samples", "2000")
	sp.End()
	evs := tr.Events()
	if len(evs) != 1 {
		t.Fatalf("got %d events, want 1", len(evs))
	}
	ev := evs[0]
	if ev.Cat != "experiment" || ev.Name != "table1" {
		t.Errorf("event = %q/%q, want experiment/table1", ev.Cat, ev.Name)
	}
	if ev.DurNS < 0 || ev.StartNS < 0 {
		t.Errorf("negative timing: start %d dur %d", ev.StartNS, ev.DurNS)
	}
	if ev.NAttrs != 2 || ev.Attrs[0] != (Attr{"seed", "2015"}) || ev.Attrs[1] != (Attr{"samples", "2000"}) {
		t.Errorf("attrs = %v (%d), want seed/samples", ev.Attrs, ev.NAttrs)
	}
}

func TestSpanAttrOverflowDropped(t *testing.T) {
	tr := NewTracer(4)
	sp := tr.Start("c", "n")
	for i := 0; i < maxSpanAttrs+3; i++ {
		sp.Attr("k", "v")
	}
	sp.End()
	if got := tr.Events()[0].NAttrs; got != maxSpanAttrs {
		t.Errorf("NAttrs = %d, want %d", got, maxSpanAttrs)
	}
}

func TestNilTracerIsInert(t *testing.T) {
	var tr *Tracer
	sp := tr.Start("c", "n")
	sp.Attr("k", "v")
	sp.End() // must not panic
	if evs := tr.Events(); evs != nil {
		t.Errorf("nil tracer Events() = %v, want nil", evs)
	}
	if tr.Dropped() != 0 {
		t.Error("nil tracer Dropped() != 0")
	}
}

// TestDisabledSpanZeroAllocs is the zero-overhead contract: with no
// tracer installed, the full Start/Attr/End sequence through obs.T()
// allocates nothing.
func TestDisabledSpanZeroAllocs(t *testing.T) {
	SetTracer(nil)
	allocs := testing.AllocsPerRun(1000, func() {
		sp := T().Start("experiment", "bench")
		sp.Attr("seed", "2015")
		sp.End()
	})
	if allocs != 0 {
		t.Fatalf("disabled span path allocates %v per op, want 0", allocs)
	}
}

func TestRingOverwritesOldest(t *testing.T) {
	tr := NewTracer(4)
	names := []string{"a", "b", "c", "d", "e", "f"}
	for _, n := range names {
		sp := tr.Start("c", n)
		sp.End()
	}
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want 4", len(evs))
	}
	for i, want := range []string{"c", "d", "e", "f"} {
		if evs[i].Name != want {
			t.Errorf("event %d = %q, want %q (oldest-first order)", i, evs[i].Name, want)
		}
	}
	if tr.Dropped() != 2 {
		t.Errorf("Dropped = %d, want 2", tr.Dropped())
	}
}

// fixedTracer builds a tracer with hand-written events so timing-
// dependent output (the Chrome trace, phase aggregation) is exactly
// reproducible.
func fixedTracer() *Tracer {
	tr := NewTracer(16)
	ms := func(v int64) int64 { return v * int64(time.Millisecond) }
	events := []SpanEvent{
		{Cat: "experiment", Name: "table1", StartNS: 0, DurNS: ms(5),
			Attrs: [maxSpanAttrs]Attr{{Key: "seed", Value: "2015"}}, NAttrs: 1},
		{Cat: "experiment", Name: "table2", StartNS: ms(1), DurNS: ms(2)},
		{Cat: "calibration", Name: "lcsc", StartNS: ms(6), DurNS: ms(1)},
		{Cat: "calibration", Name: "lcsc", StartNS: ms(8), DurNS: ms(3)},
	}
	for _, ev := range events {
		tr.record(ev)
	}
	return tr
}

// TestChromeTraceGolden locks the emitted Chrome-trace JSON down to the
// byte. Regenerate with UPDATE_GOLDEN=1 go test ./internal/obs.
func TestChromeTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := fixedTracer().WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "chrome_trace_golden.json")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with UPDATE_GOLDEN=1)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("chrome trace differs from golden:\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
	// The golden trace must also satisfy the validator.
	if err := ValidateChromeTrace(bytes.NewReader(want)); err != nil {
		t.Errorf("golden trace fails validation: %v", err)
	}
}

// TestChromeTraceLanes: overlapping spans land on distinct tids so
// Perfetto renders them side by side instead of falsely nested.
func TestChromeTraceLanes(t *testing.T) {
	var buf bytes.Buffer
	if err := fixedTracer().WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `"tid": 2`) {
		t.Errorf("overlapping spans share one lane:\n%s", out)
	}
}

func TestValidateChromeTraceErrors(t *testing.T) {
	cases := map[string]string{
		"not json":     "{",
		"no events":    `{"traceEvents":[]}`,
		"no name":      `{"traceEvents":[{"ph":"X","pid":1,"tid":1}]}`,
		"wrong phase":  `{"traceEvents":[{"name":"x","ph":"B","pid":1,"tid":1}]}`,
		"negative dur": `{"traceEvents":[{"name":"x","ph":"X","dur":-1,"pid":1,"tid":1}]}`,
		"zero pid":     `{"traceEvents":[{"name":"x","ph":"X","pid":0,"tid":1}]}`,
	}
	for name, in := range cases {
		if err := ValidateChromeTrace(strings.NewReader(in)); err == nil {
			t.Errorf("%s: validation passed, want error", name)
		}
	}
}

func TestPhaseTimings(t *testing.T) {
	pts := fixedTracer().PhaseTimings()
	if len(pts) != 3 {
		t.Fatalf("got %d phase timings, want 3: %+v", len(pts), pts)
	}
	// Sorted by (cat, name): calibration/lcsc, experiment/table1, experiment/table2.
	if pts[0].Cat != "calibration" || pts[0].Name != "lcsc" || pts[0].Count != 2 ||
		pts[0].TotalMS != 4 || pts[0].MaxMS != 3 {
		t.Errorf("calibration aggregate wrong: %+v", pts[0])
	}
	if pts[1].Name != "table1" || pts[1].TotalMS != 5 {
		t.Errorf("table1 aggregate wrong: %+v", pts[1])
	}
	if pts[2].Name != "table2" || pts[2].Count != 1 {
		t.Errorf("table2 aggregate wrong: %+v", pts[2])
	}
}
