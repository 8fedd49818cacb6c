package sim

import (
	"testing"
)

func TestEventsRunInTimeOrder(t *testing.T) {
	var e Engine
	var order []int
	e.Schedule(3, func(*Engine) { order = append(order, 3) })
	e.Schedule(1, func(*Engine) { order = append(order, 1) })
	e.Schedule(2, func(*Engine) { order = append(order, 2) })
	end := e.Run()
	if end != 3 {
		t.Errorf("final time = %v", end)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v", order)
	}
}

func TestTieBreakBySchedulingOrder(t *testing.T) {
	var e Engine
	var order []string
	e.Schedule(1, func(*Engine) { order = append(order, "a") })
	e.Schedule(1, func(*Engine) { order = append(order, "b") })
	e.Schedule(1, func(*Engine) { order = append(order, "c") })
	e.Run()
	if got := order[0] + order[1] + order[2]; got != "abc" {
		t.Errorf("tie order = %q", got)
	}
}

func TestScheduleDuringRun(t *testing.T) {
	var e Engine
	var hits []float64
	e.Schedule(1, func(en *Engine) {
		hits = append(hits, en.Now())
		en.ScheduleAfter(4, func(en *Engine) { hits = append(hits, en.Now()) })
	})
	e.Run()
	if len(hits) != 2 || hits[0] != 1 || hits[1] != 5 {
		t.Errorf("hits = %v", hits)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	var e Engine
	e.Schedule(5, func(en *Engine) {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		en.Schedule(1, func(*Engine) {})
	})
	e.Run()
}

func TestEvery(t *testing.T) {
	var e Engine
	var ticks []float64
	e.Every(0, 10, func(now float64) bool { return now <= 35 }, func(en *Engine) {
		ticks = append(ticks, en.Now())
	})
	e.Run()
	want := []float64{0, 10, 20, 30}
	if len(ticks) != len(want) {
		t.Fatalf("ticks = %v", ticks)
	}
	for i := range want {
		if ticks[i] != want[i] {
			t.Errorf("tick %d = %v, want %v", i, ticks[i], want[i])
		}
	}
}

func TestEveryPanicsOnBadPeriod(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	var e Engine
	e.Every(0, 0, func(float64) bool { return true }, func(*Engine) {})
}

func TestInvalidTimePanics(t *testing.T) {
	var e Engine
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on NaN time")
		}
	}()
	e.Schedule(nan(), func(*Engine) {})
}

func nan() float64 {
	var z float64
	return z / z
}

func TestDeterministicReplay(t *testing.T) {
	run := func() []float64 {
		var e Engine
		var log []float64
		e.Every(0, 0.7, func(now float64) bool { return now < 10 }, func(en *Engine) {
			log = append(log, en.Now())
		})
		e.Every(0.3, 1.1, func(now float64) bool { return now < 10 }, func(en *Engine) {
			log = append(log, -en.Now())
		})
		e.Run()
		return log
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("replay lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func BenchmarkEngineThroughput(b *testing.B) {
	var e Engine
	n := 0
	e.Every(0, 1, func(float64) bool { return n < b.N }, func(*Engine) { n++ })
	if b.N > 0 {
		e.Run()
	}
}
