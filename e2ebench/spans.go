package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// spanLayers are the layers self time is reported for: the benchmark's
// own client code, then the program's packages as the spans name them.
var spanLayers = []string{"bench", "client", "server", "dist", "sampling", "parallel",
	"core", "systems", "report", "methodology", "fleet"}

// span is one recorded interval. Spans of one operation share Op;
// Parent is the enclosing span's ID (0 for a root).
type span struct {
	ID, Parent int
	Op         int
	Layer      string
	Name       string
	Start, End time.Duration // since the recorder started
}

// recorder keeps spans in memory until the run ends. A nil *recorder
// records nothing, so untraced code paths call it unconditionally.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its ID (0 on a nil recorder).
func (rec *recorder) begin(parent, op int, layer, name string) int {
	if rec == nil {
		return 0
	}
	now := time.Since(rec.t0)
	rec.mu.Lock()
	defer rec.mu.Unlock()
	rec.spans = append(rec.spans, span{ID: len(rec.spans) + 1, Parent: parent, Op: op, Layer: layer, Name: name, Start: now, End: -1})
	return len(rec.spans)
}

// end closes span id.
func (rec *recorder) end(id int) {
	if rec == nil || id == 0 {
		return
	}
	now := time.Since(rec.t0)
	rec.mu.Lock()
	rec.spans[id-1].End = now
	rec.mu.Unlock()
}

// add records a completed span with explicit times (for spans another
// process reported) and returns its ID.
func (rec *recorder) add(parent, op int, layer, name string, start, end time.Duration) int {
	if rec == nil {
		return 0
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	rec.spans = append(rec.spans, span{ID: len(rec.spans) + 1, Parent: parent, Op: op, Layer: layer, Name: name, Start: start, End: end})
	return len(rec.spans)
}

// bounds returns span id's start and end.
func (rec *recorder) bounds(id int) (time.Duration, time.Duration) {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	s := rec.spans[id-1]
	return s.Start, s.End
}

func (rec *recorder) len() int {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	return len(rec.spans)
}

// selfTimes sums, per layer, each span's duration minus the part of it
// its children cover.
func (rec *recorder) selfTimes() map[string]time.Duration {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	return selfTimes(rec.spans)
}

func selfTimes(spans []span) map[string]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		if s.End < s.Start {
			continue // never closed
		}
		out[s.Layer] += s.End - s.Start - covered(s.Start, s.End, children[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to [lo, hi].
func covered(lo, hi time.Duration, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, lo), min(k.End, hi)
		if b > a {
			iv = append(iv, [2]time.Duration{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total time.Duration
	curA, curB := time.Duration(-1), time.Duration(-1)
	for _, x := range iv {
		if x[0] > curB {
			if curB > curA {
				total += curB - curA
			}
			curA, curB = x[0], x[1]
		} else if x[1] > curB {
			curB = x[1]
		}
	}
	if curB > curA {
		total += curB - curA
	}
	return total
}

// writeChrome writes the spans as Chrome-trace JSON (loadable in
// Perfetto): one complete event per span, the operation as the thread.
func (rec *recorder) writeChrome(path string) error {
	type event struct {
		Name string            `json:"name"`
		Cat  string            `json:"cat"`
		Ph   string            `json:"ph"`
		Ts   float64           `json:"ts"`
		Dur  float64           `json:"dur"`
		Pid  int               `json:"pid"`
		Tid  int               `json:"tid"`
		Args map[string]string `json:"args,omitempty"`
	}
	rec.mu.Lock()
	evs := make([]event, 0, len(rec.spans))
	for _, s := range rec.spans {
		if s.End < s.Start {
			continue
		}
		evs = append(evs, event{Name: s.Name, Cat: s.Layer, Ph: "X",
			Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3, Pid: 1, Tid: s.Op})
	}
	rec.mu.Unlock()
	b, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
