package obs

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// Attr is one key/value annotation on a span. Spans hold a small fixed
// array of them so annotating never allocates.
type Attr struct {
	Key, Value string
}

// maxSpanAttrs is the per-span annotation capacity; further Attr calls
// are dropped.
const maxSpanAttrs = 4

// SpanKind distinguishes timed spans from instantaneous point events.
type SpanKind uint8

const (
	// KindSpan is a complete timed region (Chrome-trace "X" slice).
	KindSpan SpanKind = iota
	// KindInstant is a point-in-time event inside a span (Chrome-trace
	// "i" instant): cache decisions, state transitions.
	KindInstant
)

// SpanEvent is one completed span as stored in a span sink (the
// process tracer's ring buffer or a per-request TraceBuffer).
type SpanEvent struct {
	// Cat groups spans ("experiment", "calibration", "phase", ...).
	Cat string
	// Name identifies the span within its category.
	Name string
	// StartNS and DurNS are nanoseconds relative to the sink's epoch.
	StartNS, DurNS int64
	// Trace, ID and Parent are the request-scoped identity: all zero for
	// plain process-tracer spans started outside any request.
	Trace  TraceID
	ID     SpanID
	Parent SpanID
	// Kind separates timed spans from instant events.
	Kind SpanKind
	// Attrs[:NAttrs] are the span's annotations.
	Attrs  [maxSpanAttrs]Attr
	NAttrs int
}

// spanSink receives completed spans. Two implementations exist: the
// process-wide Tracer (ring buffer of recent spans across all work) and
// the per-request TraceBuffer (every span of one request, bounded).
type spanSink interface {
	// nowNS returns nanoseconds since the sink's epoch.
	nowNS() int64
	// recordSpan stores one completed span or instant event.
	recordSpan(SpanEvent)
}

// Tracer records completed spans into a fixed-capacity ring buffer: when
// full, the oldest span is overwritten and Dropped counts it. Recording
// takes a short mutex; spans are coarse (experiments, calibrations,
// pipeline phases), so contention is negligible. A nil *Tracer is a
// valid, free no-op on every method.
type Tracer struct {
	epoch time.Time

	mu      sync.Mutex
	events  []SpanEvent // ring storage, len grows to cap then stays
	head    int         // index of the oldest event once wrapped
	wrapped bool
	dropped int64
}

// DefaultTraceCapacity is the ring size used when NewTracer is given a
// non-positive capacity.
const DefaultTraceCapacity = 8192

// NewTracer returns a tracer whose ring holds up to capacity spans
// (DefaultTraceCapacity if capacity <= 0).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	return &Tracer{epoch: time.Now(), events: make([]SpanEvent, 0, capacity)}
}

// now returns nanoseconds since the tracer epoch.
func (t *Tracer) now() int64 { return time.Since(t.epoch).Nanoseconds() }

// nowNS implements spanSink.
func (t *Tracer) nowNS() int64 { return t.now() }

// recordSpan implements spanSink.
func (t *Tracer) recordSpan(ev SpanEvent) {
	t.mu.Lock()
	t.record(ev)
	t.mu.Unlock()
}

// Span is an in-flight timed region. The zero Span (from a nil tracer)
// is inert: Attr, Event and End return immediately. Spans are values and
// live on the caller's stack; none of Start/Attr/End allocates.
type Span struct {
	sink   spanSink
	cat    string
	name   string
	start  int64
	trace  TraceID
	id     SpanID
	parent SpanID
	attrs  [maxSpanAttrs]Attr
	nattrs int
}

// Start opens a span in category cat with the given name. On a nil
// tracer it returns the inert zero Span. The span gets a fresh span ID
// (for context-propagated parenthood) but no trace ID: process-tracer
// spans belong to the run, not to any one request.
func (t *Tracer) Start(cat, name string) Span {
	if t == nil {
		return Span{}
	}
	return Span{sink: t, cat: cat, name: name, start: t.now(), id: newSpanID()}
}

// Active reports whether the span records anything. Call sites guard
// allocation-heavy attribute construction (strconv, fmt) behind it.
func (s *Span) Active() bool { return s.sink != nil }

// ID returns the span's own identifier (zero on an inert span).
func (s *Span) ID() SpanID { return s.id }

// Attr annotates the span; annotations beyond the per-span capacity are
// dropped. No-op on an inert span.
func (s *Span) Attr(key, value string) {
	if s.sink == nil || s.nattrs >= maxSpanAttrs {
		return
	}
	s.attrs[s.nattrs] = Attr{Key: key, Value: value}
	s.nattrs++
}

// End closes the span and records it. No-op on an inert span.
func (s *Span) End() {
	if s.sink == nil {
		return
	}
	s.sink.recordSpan(SpanEvent{
		Cat:     s.cat,
		Name:    s.name,
		StartNS: s.start,
		DurNS:   s.sink.nowNS() - s.start,
		Trace:   s.trace,
		ID:      s.id,
		Parent:  s.parent,
		Attrs:   s.attrs,
		NAttrs:  s.nattrs,
	})
}

// record appends ev to the ring. Caller holds t.mu.
func (t *Tracer) record(ev SpanEvent) {
	if len(t.events) < cap(t.events) {
		t.events = append(t.events, ev)
		return
	}
	t.events[t.head] = ev
	t.head++
	if t.head == len(t.events) {
		t.head = 0
	}
	t.wrapped = true
	t.dropped++
}

// Events returns the retained spans in recording (end-time) order.
func (t *Tracer) Events() []SpanEvent {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SpanEvent, 0, len(t.events))
	if t.wrapped {
		out = append(out, t.events[t.head:]...)
		out = append(out, t.events[:t.head]...)
	} else {
		out = append(out, t.events...)
	}
	return out
}

// Dropped returns how many spans were overwritten because the ring was
// full.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// PhaseTiming aggregates the retained spans of one (category, name)
// pair — the per-phase wall times that land in the run manifest.
type PhaseTiming struct {
	Cat     string  `json:"cat"`
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	MaxMS   float64 `json:"max_ms"`
}

// PhaseTimings aggregates the retained timed spans by (category, name),
// sorted by category then name. Instant events carry no duration and
// are excluded.
func (t *Tracer) PhaseTimings() []PhaseTiming {
	evs := t.Events()
	byKey := map[[2]string]*PhaseTiming{}
	for _, ev := range evs {
		if ev.Kind != KindSpan {
			continue
		}
		k := [2]string{ev.Cat, ev.Name}
		pt, ok := byKey[k]
		if !ok {
			pt = &PhaseTiming{Cat: ev.Cat, Name: ev.Name}
			byKey[k] = pt
		}
		ms := float64(ev.DurNS) / 1e6
		pt.Count++
		pt.TotalMS += ms
		if ms > pt.MaxMS {
			pt.MaxMS = ms
		}
	}
	out := make([]PhaseTiming, 0, len(byKey))
	for _, pt := range byKey {
		out = append(out, *pt)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Cat != out[j].Cat {
			return out[i].Cat < out[j].Cat
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// chromeEvent is one Chrome-trace-format event: a "complete" (ph:"X")
// slice or a thread-scoped instant (ph:"i").
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"` // microseconds
	Dur  float64           `json:"dur"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	S    string            `json:"s,omitempty"` // instant scope
	Args map[string]string `json:"args,omitempty"`
}

// chromeTrace is the JSON-object flavor of the Chrome trace format,
// loadable in chrome://tracing and Perfetto.
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChromeTrace writes the retained spans as Chrome-trace JSON.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	return WriteChromeTraceEvents(w, t.Events())
}

// WriteChromeTraceEvents writes evs as Chrome-trace JSON. Overlapping
// spans (parallel experiments) are assigned to separate lanes (tids)
// greedily so every slice renders without false nesting; instant events
// become thread-scoped "i" marks on the lane they land in.
func WriteChromeTraceEvents(w io.Writer, evs []SpanEvent) error {
	order := make([]int, len(evs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return evs[order[a]].StartNS < evs[order[b]].StartNS
	})
	// laneEnd[l] is the end time of the last span placed on lane l.
	var laneEnd []int64
	out := make([]chromeEvent, 0, len(evs))
	for _, i := range order {
		ev := evs[i]
		lane := -1
		for l, end := range laneEnd {
			if end <= ev.StartNS {
				lane = l
				break
			}
		}
		if lane == -1 {
			laneEnd = append(laneEnd, 0)
			lane = len(laneEnd) - 1
		}
		laneEnd[lane] = ev.StartNS + ev.DurNS
		ce := chromeEvent{
			Name: ev.Name,
			Cat:  ev.Cat,
			Ph:   "X",
			Ts:   float64(ev.StartNS) / 1e3,
			Dur:  float64(ev.DurNS) / 1e3,
			Pid:  1,
			Tid:  lane + 1,
		}
		if ev.Kind == KindInstant {
			ce.Ph = "i"
			ce.S = "t"
		}
		if ev.NAttrs > 0 {
			ce.Args = make(map[string]string, ev.NAttrs)
			for _, a := range ev.Attrs[:ev.NAttrs] {
				ce.Args[a.Key] = a.Value
			}
		}
		out = append(out, ce)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(chromeTrace{TraceEvents: out, DisplayTimeUnit: "ms"})
}

// ValidateChromeTrace parses r as Chrome-trace JSON and checks the
// invariants WriteChromeTrace guarantees: at least one event, every
// event a complete ("X") slice or instant ("i") mark with a name,
// non-negative timestamps and durations, and positive pid/tid.
func ValidateChromeTrace(r io.Reader) error {
	var ct chromeTrace
	dec := json.NewDecoder(r)
	if err := dec.Decode(&ct); err != nil {
		return fmt.Errorf("obs: invalid trace JSON: %w", err)
	}
	if len(ct.TraceEvents) == 0 {
		return errors.New("obs: trace has no events")
	}
	for i, ev := range ct.TraceEvents {
		switch {
		case ev.Name == "":
			return fmt.Errorf("obs: trace event %d has no name", i)
		case ev.Ph != "X" && ev.Ph != "i":
			return fmt.Errorf("obs: trace event %d (%s) has phase %q, want X or i", i, ev.Name, ev.Ph)
		case ev.Ts < 0 || ev.Dur < 0:
			return fmt.Errorf("obs: trace event %d (%s) has negative ts/dur", i, ev.Name)
		case ev.Pid <= 0 || ev.Tid <= 0:
			return fmt.Errorf("obs: trace event %d (%s) has non-positive pid/tid", i, ev.Name)
		}
	}
	return nil
}
