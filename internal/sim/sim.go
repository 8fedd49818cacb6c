// Package sim provides a minimal discrete-event simulation engine: a
// virtual clock, a time-ordered event queue, and helpers for periodic
// processes. The cluster simulator uses it to interleave power-sampling
// ticks, workload phase transitions and controller updates (fans, DVFS)
// on a single deterministic timeline.
package sim

import (
	"container/heap"
	"math"
)

// Event is a scheduled callback. The callback receives the engine so it
// can schedule follow-up events.
type Event struct {
	Time float64
	Fn   func(*Engine)

	// seq breaks ties so same-time events run in scheduling order,
	// keeping the simulation deterministic.
	seq   uint64
	index int
}

type eventQueue []*Event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].Time != q[j].Time {
		return q[i].Time < q[j].Time
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}
func (q *eventQueue) Push(x any) {
	e := x.(*Event)
	e.index = len(*q)
	*q = append(*q, e)
}
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return e
}

// Engine is a discrete-event simulator. The zero value is ready to use at
// time 0.
type Engine struct {
	now     float64
	queue   eventQueue
	nextSeq uint64
}

// Now returns the current simulation time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Schedule runs fn at absolute time t. Scheduling in the past (before
// Now) panics, since it would corrupt causality.
func (e *Engine) Schedule(t float64, fn func(*Engine)) {
	if t < e.now {
		panic("sim: scheduling an event in the past")
	}
	if math.IsNaN(t) || math.IsInf(t, 0) {
		panic("sim: invalid event time")
	}
	ev := &Event{Time: t, Fn: fn, seq: e.nextSeq}
	e.nextSeq++
	heap.Push(&e.queue, ev)
}

// ScheduleAfter runs fn delay seconds from now. Negative delays panic.
func (e *Engine) ScheduleAfter(delay float64, fn func(*Engine)) {
	e.Schedule(e.now+delay, fn)
}

// Every schedules fn at start, start+period, ... while until(now) remains
// true (checked before each invocation, so fn never runs after the
// condition fails). It panics if period <= 0.
func (e *Engine) Every(start, period float64, until func(now float64) bool, fn func(*Engine)) {
	if period <= 0 {
		panic("sim: Every requires period > 0")
	}
	var tick func(*Engine)
	tick = func(en *Engine) {
		if !until(en.now) {
			return
		}
		fn(en)
		en.ScheduleAfter(period, tick)
	}
	e.Schedule(start, tick)
}

// Run processes events until the queue is empty. It returns the final
// simulation time.
func (e *Engine) Run() float64 {
	for len(e.queue) > 0 {
		ev := heap.Pop(&e.queue).(*Event)
		e.now = ev.Time
		ev.Fn(e)
	}
	return e.now
}
