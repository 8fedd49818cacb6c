package obs

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

func TestTraceIDParseRoundTrip(t *testing.T) {
	id := NewTraceID()
	got, err := ParseTraceID(id.String())
	if err != nil {
		t.Fatalf("ParseTraceID(%q): %v", id.String(), err)
	}
	if got != id {
		t.Fatalf("round trip: got %s want %s", got, id)
	}
	for _, bad := range []string{
		"",
		"abc",
		"00000000000000000000000000000000",   // all zero
		"zz102030405060708090a0b0c0d0e0f0",   // not hex
		"0102030405060708090a0b0c0d0e0f0102", // too long
		strings.Repeat("0", 31) + "1" + "0",  // 33 chars
	} {
		if _, err := ParseTraceID(bad); err == nil {
			t.Errorf("ParseTraceID(%q): want error", bad)
		}
	}
}

func TestNewTraceIDsAreUniqueAndNonZero(t *testing.T) {
	seen := map[TraceID]bool{}
	for i := 0; i < 1000; i++ {
		id := NewTraceID()
		if id.IsZero() {
			t.Fatal("NewTraceID returned the zero ID")
		}
		if seen[id] {
			t.Fatalf("duplicate trace ID %s", id)
		}
		seen[id] = true
	}
}

func TestTraceparentRoundTrip(t *testing.T) {
	id := NewTraceID()
	sp := newSpanID()
	h := FormatTraceparent(id, sp, true)
	gotT, gotS, sampled, err := ParseTraceparent(h)
	if err != nil {
		t.Fatalf("ParseTraceparent(%q): %v", h, err)
	}
	if gotT != id || gotS != sp || !sampled {
		t.Fatalf("round trip mismatch: %s %s %v", gotT, gotS, sampled)
	}
	if _, _, sampled, err = ParseTraceparent(FormatTraceparent(id, sp, false)); err != nil || sampled {
		t.Fatalf("unsampled round trip: sampled=%v err=%v", sampled, err)
	}
}

func TestTraceparentRejectsMalformed(t *testing.T) {
	id, sp := NewTraceID(), newSpanID()
	for _, bad := range []string{
		"",
		"00",
		"00-" + id.String(), // missing fields
		"ff-" + id.String() + "-" + sp.String() + "-01",             // forbidden version
		"00-" + strings.Repeat("0", 32) + "-" + sp.String() + "-01", // zero trace
		"00-" + id.String() + "-" + strings.Repeat("0", 16) + "-01", // zero parent
		"00-" + strings.Repeat("z", 32) + "-" + sp.String() + "-01", // non-hex trace
		"00x" + id.String() + "-" + sp.String() + "-01",             // wrong separator
	} {
		if _, _, _, err := ParseTraceparent(bad); err == nil {
			t.Errorf("ParseTraceparent(%q): want error", bad)
		}
	}
}

func TestStartSpanCtxParentsUnderRequestSpan(t *testing.T) {
	buf := newTraceBuffer(NewTraceID(), 16)
	root := buf.Root("request", "coverage", SpanID{})
	ctx := ContextWithSpan(context.Background(), root)

	child, cctx := StartSpanCtx(ctx, "server", "compute")
	if !child.Active() {
		t.Fatal("child span inactive inside a traced context")
	}
	if child.TraceID() != buf.ID() {
		t.Fatalf("child trace %s, want %s", child.TraceID(), buf.ID())
	}
	grand, _ := StartSpanCtx(cctx, "chunk", "c0")
	EventCtx(cctx, "cache", "miss")
	grand.End()
	child.End()
	root.End()

	evs := buf.Events()
	if len(evs) != 4 {
		t.Fatalf("got %d events, want 4", len(evs))
	}
	byName := map[string]SpanEvent{}
	for _, ev := range evs {
		byName[ev.Name] = ev
	}
	if byName["compute"].Parent != root.ID() {
		t.Error("compute span not parented on the root")
	}
	if byName["c0"].Parent != byName["compute"].ID {
		t.Error("grandchild not parented on the child")
	}
	if ev := byName["miss"]; ev.Kind != KindInstant || ev.Parent != byName["compute"].ID {
		t.Errorf("cache event: kind=%v parent=%s, want instant under compute", ev.Kind, ev.Parent)
	}
	for _, ev := range evs {
		if ev.Trace != buf.ID() {
			t.Errorf("event %s escaped the trace: %s", ev.Name, ev.Trace)
		}
	}
}

func TestStartSpanCtxFallsBackToProcessTracer(t *testing.T) {
	tr := NewTracer(16)
	SetTracer(tr)
	defer SetTracer(nil)
	sp, ctx := StartSpanCtx(context.Background(), "phase", "study")
	if !sp.Active() {
		t.Fatal("span inactive with a process tracer installed")
	}
	child, _ := StartSpanCtx(ctx, "chunk", "c1")
	child.End()
	sp.End()
	evs := tr.Events()
	if len(evs) != 2 {
		t.Fatalf("got %d events, want 2", len(evs))
	}
	if evs[0].Parent != sp.ID() {
		t.Error("fallback child not parented via the returned context")
	}
}

func TestStartSpanCtxDisabledIsInert(t *testing.T) {
	SetTracer(nil)
	ctx := context.Background()
	sp, out := StartSpanCtx(ctx, "a", "b")
	if sp.Active() {
		t.Fatal("span active with tracing fully off")
	}
	if out != ctx {
		t.Fatal("disabled StartSpanCtx must return ctx unchanged")
	}
	sp.End() // must not panic
	EventCtx(ctx, "a", "b")
}

func TestTraceBufferCapsSpans(t *testing.T) {
	buf := newTraceBuffer(NewTraceID(), 3)
	ctx := ContextWithSpan(context.Background(), buf.Root("request", "r", SpanID{}))
	for i := 0; i < 5; i++ {
		EventCtx(ctx, "request", "e")
	}
	if got := len(buf.Events()); got != 3 {
		t.Fatalf("buffer kept %d events, want 3", got)
	}
	if buf.Dropped() != 2 {
		t.Fatalf("dropped %d, want 2", buf.Dropped())
	}
}

func TestTraceStoreFIFOEviction(t *testing.T) {
	s := NewTraceStore(2, 8)
	b1 := s.Start(TraceID{})
	b2 := s.Start(TraceID{})
	if s.Len() != 2 {
		t.Fatalf("len %d, want 2", s.Len())
	}
	// Repeat ID returns the same buffer, no eviction.
	if again := s.Start(b2.ID()); again != b2 {
		t.Fatal("repeated trace ID minted a new buffer")
	}
	b3 := s.Start(TraceID{})
	if _, ok := s.Get(b1.ID()); ok {
		t.Fatal("oldest trace not evicted")
	}
	for _, b := range []*TraceBuffer{b2, b3} {
		if _, ok := s.Get(b.ID()); !ok {
			t.Fatalf("trace %s missing", b.ID())
		}
	}
}

func TestTraceBufferChromeTraceValidates(t *testing.T) {
	buf := newTraceBuffer(NewTraceID(), 16)
	root := buf.Root("request", "coverage", SpanID{})
	ctx := ContextWithSpan(context.Background(), root)
	EventCtx(ctx, "request", "cache_miss")
	child, _ := StartSpanCtx(ctx, "chunk", "c0")
	child.End()
	root.End()
	var out bytes.Buffer
	if err := buf.WriteChromeTrace(&out); err != nil {
		t.Fatal(err)
	}
	if err := ValidateChromeTrace(bytes.NewReader(out.Bytes())); err != nil {
		t.Fatalf("chrome trace with instants fails validation: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), `"ph": "i"`) {
		t.Error("instant event not rendered as ph:i")
	}
}
