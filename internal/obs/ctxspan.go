package obs

import (
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sync/atomic"
	"time"
)

// TraceID identifies one request-scoped trace, W3C Trace Context shaped
// (16 bytes, all-zero means "no trace").
type TraceID [16]byte

// SpanID identifies one span within a trace (8 bytes, all-zero means
// "no span").
type SpanID [8]byte

// IsZero reports the absent-trace sentinel.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// String renders the ID as 32 lowercase hex digits, the traceparent
// spelling.
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// IsZero reports the absent-span sentinel.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// String renders the ID as 16 lowercase hex digits.
func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// ParseTraceID parses the 32-hex-digit spelling of a trace ID.
func ParseTraceID(s string) (TraceID, error) {
	var t TraceID
	if len(s) != 32 {
		return t, fmt.Errorf("obs: trace ID %q is not 32 hex digits", s)
	}
	if _, err := hex.Decode(t[:], []byte(s)); err != nil {
		return t, fmt.Errorf("obs: trace ID %q: %w", s, err)
	}
	if t.IsZero() {
		return t, fmt.Errorf("obs: trace ID %q is all zeros", s)
	}
	return t, nil
}

// idEntropy is the process-unique high half of generated trace IDs,
// drawn from the OS entropy pool once at startup; idCounter provides the
// low halves and every span ID, so ID generation is a single atomic add.
var (
	idEntropy uint64
	idCounter atomic.Uint64
)

func init() {
	var b [8]byte
	if _, err := crand.Read(b[:]); err == nil {
		idEntropy = binary.BigEndian.Uint64(b[:])
	} else {
		idEntropy = uint64(time.Now().UnixNano())
	}
	if idEntropy == 0 {
		idEntropy = 1
	}
}

// NewTraceID returns a process-unique, non-zero trace ID: 8 bytes of
// process entropy followed by a sequence number.
func NewTraceID() TraceID {
	var t TraceID
	binary.BigEndian.PutUint64(t[:8], idEntropy)
	binary.BigEndian.PutUint64(t[8:], idCounter.Add(1))
	return t
}

// newSpanID returns a process-unique, non-zero span ID.
func newSpanID() SpanID {
	var s SpanID
	binary.BigEndian.PutUint64(s[:], idCounter.Add(1))
	return s
}

// FormatTraceparent renders a W3C Trace Context traceparent header
// (version 00): 00-<trace-id>-<parent-id>-<flags>.
func FormatTraceparent(t TraceID, s SpanID, sampled bool) string {
	flags := "00"
	if sampled {
		flags = "01"
	}
	return "00-" + t.String() + "-" + s.String() + "-" + flags
}

// ParseTraceparent parses a W3C traceparent header into its trace ID,
// parent span ID and sampled flag. Unknown future versions are accepted
// as long as the version-00 prefix fields parse (per the spec); the
// forbidden version ff, malformed fields and all-zero IDs are errors.
func ParseTraceparent(h string) (TraceID, SpanID, bool, error) {
	var (
		t TraceID
		s SpanID
	)
	if len(h) < 55 || h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return t, s, false, fmt.Errorf("obs: malformed traceparent %q", h)
	}
	if h[:2] == "ff" {
		return t, s, false, fmt.Errorf("obs: traceparent version ff is forbidden")
	}
	if _, err := hex.Decode(t[:], []byte(h[3:35])); err != nil {
		return t, s, false, fmt.Errorf("obs: traceparent trace-id: %w", err)
	}
	if _, err := hex.Decode(s[:], []byte(h[36:52])); err != nil {
		return t, s, false, fmt.Errorf("obs: traceparent parent-id: %w", err)
	}
	var flags [1]byte
	if _, err := hex.Decode(flags[:], []byte(h[53:55])); err != nil {
		return t, s, false, fmt.Errorf("obs: traceparent flags: %w", err)
	}
	if t.IsZero() || s.IsZero() {
		return t, s, false, fmt.Errorf("obs: traceparent %q has all-zero IDs", h)
	}
	return t, s, flags[0]&0x01 != 0, nil
}

// spanCtxKey keys the current span in a context.
type spanCtxKey struct{}

// SpanRef is the lightweight handle to a live span that travels in a
// context: enough identity to parent children and record events, without
// carrying the span's mutable attribute state across goroutines.
type SpanRef struct {
	sink  spanSink
	trace TraceID
	id    SpanID
}

// Event records an instant event parented on the referenced span.
func (r SpanRef) Event(cat, name string) {
	if r.sink == nil {
		return
	}
	r.sink.recordSpan(SpanEvent{
		Cat:     cat,
		Name:    name,
		StartNS: r.sink.nowNS(),
		Trace:   r.trace,
		ID:      newSpanID(),
		Parent:  r.id,
		Kind:    KindInstant,
	})
}

// ContextWithSpan returns ctx carrying s as the current span, so
// StartSpanCtx and EventCtx downstream attach to it. An inert span
// returns ctx unchanged (and allocates nothing).
func ContextWithSpan(ctx context.Context, s Span) context.Context {
	if s.sink == nil {
		return ctx
	}
	return context.WithValue(ctx, spanCtxKey{}, SpanRef{sink: s.sink, trace: s.trace, id: s.id})
}

// ContextWithSpanRef transplants a span ref onto ctx. The serving layer
// uses it to carry a request's span onto the detached lifecycle context
// a coalesced computation runs on.
func ContextWithSpanRef(ctx context.Context, r SpanRef) context.Context {
	if r.sink == nil {
		return ctx
	}
	return context.WithValue(ctx, spanCtxKey{}, r)
}

// SpanRefFromContext returns the current span's ref, if any.
func SpanRefFromContext(ctx context.Context) (SpanRef, bool) {
	r, ok := ctx.Value(spanCtxKey{}).(SpanRef)
	return r, ok
}

// TraceIDFromContext returns the current request's trace ID, if the
// context carries a span that belongs to one.
func TraceIDFromContext(ctx context.Context) (TraceID, bool) {
	r, ok := SpanRefFromContext(ctx)
	if !ok || r.trace.IsZero() {
		return TraceID{}, false
	}
	return r.trace, true
}

// StartSpanCtx opens a child span of the context's current span and
// returns it together with a context carrying the child (so further
// StartSpanCtx calls nest). Without a span in ctx it falls back to the
// process tracer; with tracing fully off it returns an inert span and
// ctx unchanged, allocating nothing.
func StartSpanCtx(ctx context.Context, cat, name string) (Span, context.Context) {
	if ref, ok := SpanRefFromContext(ctx); ok && ref.sink != nil {
		sp := Span{
			sink:   ref.sink,
			cat:    cat,
			name:   name,
			start:  ref.sink.nowNS(),
			trace:  ref.trace,
			id:     newSpanID(),
			parent: ref.id,
		}
		return sp, context.WithValue(ctx, spanCtxKey{}, SpanRef{sink: sp.sink, trace: sp.trace, id: sp.id})
	}
	t := T()
	if t == nil {
		return Span{}, ctx
	}
	sp := t.Start(cat, name)
	return sp, ContextWithSpan(ctx, sp)
}

// EventCtx records an instant event on the context's current span, if
// any. Free (no allocation) when no span is present.
func EventCtx(ctx context.Context, cat, name string) {
	if ref, ok := SpanRefFromContext(ctx); ok {
		ref.Event(cat, name)
	}
}
