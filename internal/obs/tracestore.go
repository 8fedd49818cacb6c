package obs

import (
	"io"
	"sync"
	"time"
)

// Default TraceStore shape: how many recent request traces are retained
// and how many spans each may hold before dropping.
const (
	DefaultTraceStoreCapacity = 256
	DefaultSpansPerTrace      = 512
)

// TraceBuffer collects every span of one request-scoped trace. Unlike
// the process tracer's ring, a buffer is bounded by dropping the newest
// spans (the request skeleton recorded first is the valuable part) and
// counts what it dropped.
type TraceBuffer struct {
	id    TraceID
	epoch time.Time
	max   int

	mu      sync.Mutex
	events  []SpanEvent
	dropped int64
}

func newTraceBuffer(id TraceID, max int) *TraceBuffer {
	if max <= 0 {
		max = DefaultSpansPerTrace
	}
	return &TraceBuffer{id: id, epoch: time.Now(), max: max}
}

// ID returns the trace's identity.
func (b *TraceBuffer) ID() TraceID { return b.id }

// nowNS implements spanSink.
func (b *TraceBuffer) nowNS() int64 { return time.Since(b.epoch).Nanoseconds() }

// recordSpan implements spanSink.
func (b *TraceBuffer) recordSpan(ev SpanEvent) {
	b.mu.Lock()
	if len(b.events) < b.max {
		b.events = append(b.events, ev)
	} else {
		b.dropped++
	}
	b.mu.Unlock()
}

// Root opens the trace's root span. parent, when non-zero, is the
// upstream caller's span ID from an incoming traceparent header.
func (b *TraceBuffer) Root(cat, name string, parent SpanID) Span {
	return Span{
		sink:   b,
		cat:    cat,
		name:   name,
		start:  b.nowNS(),
		trace:  b.id,
		id:     newSpanID(),
		parent: parent,
	}
}

// Events returns a copy of the recorded spans in recording order.
func (b *TraceBuffer) Events() []SpanEvent {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]SpanEvent(nil), b.events...)
}

// WriteChromeTrace writes the trace as Chrome-trace JSON (loadable in
// chrome://tracing and Perfetto).
func (b *TraceBuffer) WriteChromeTrace(w io.Writer) error {
	return WriteChromeTraceEvents(w, b.Events())
}

// TraceStore is a bounded FIFO collection of recent request traces,
// keyed by trace ID: the backing store of GET /v1/trace/{id}. When full,
// the oldest trace is evicted.
type TraceStore struct {
	maxTraces int
	maxSpans  int

	mu    sync.Mutex
	byID  map[TraceID]*TraceBuffer
	order []TraceID
}

// NewTraceStore builds a store retaining up to maxTraces traces of up to
// maxSpans spans each (defaults apply for non-positive values).
func NewTraceStore(maxTraces, maxSpans int) *TraceStore {
	if maxTraces <= 0 {
		maxTraces = DefaultTraceStoreCapacity
	}
	if maxSpans <= 0 {
		maxSpans = DefaultSpansPerTrace
	}
	return &TraceStore{
		maxTraces: maxTraces,
		maxSpans:  maxSpans,
		byID:      map[TraceID]*TraceBuffer{},
	}
}

// Start registers and returns the buffer for id, minting a fresh trace
// ID when id is zero. A repeated id (a client continuing one distributed
// trace across requests) returns the existing buffer, so all its spans
// land in one trace.
func (s *TraceStore) Start(id TraceID) *TraceBuffer {
	if id.IsZero() {
		id = NewTraceID()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if b, ok := s.byID[id]; ok {
		return b
	}
	b := newTraceBuffer(id, s.maxSpans)
	s.byID[id] = b
	s.order = append(s.order, id)
	for len(s.order) > s.maxTraces {
		old := s.order[0]
		s.order = s.order[1:]
		delete(s.byID, old)
	}
	return b
}

// Get returns the retained trace for id, if it has not been evicted.
func (s *TraceStore) Get(id TraceID) (*TraceBuffer, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.byID[id]
	return b, ok
}

// Len reports how many traces are currently retained.
func (s *TraceStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.byID)
}
