package parallel

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestWorkers(t *testing.T) {
	max := runtime.GOMAXPROCS(0)
	if got := Workers(0); got != max {
		t.Errorf("Workers(0) = %d, want %d", got, max)
	}
	if got := Workers(1); got != 1 {
		t.Errorf("Workers(1) = %d, want 1", got)
	}
	if got := Workers(max + 100); got != max {
		t.Errorf("Workers(max+100) = %d, want %d", got, max)
	}
}

func TestSplitRangeCoversExactly(t *testing.T) {
	for _, tc := range []struct{ n, parts int }{
		{0, 1}, {1, 1}, {10, 3}, {10, 10}, {10, 20}, {100, 7}, {3, 4},
	} {
		ranges := SplitRange(tc.n, tc.parts)
		covered := make([]int, tc.n)
		for _, r := range ranges {
			if r.Lo >= r.Hi {
				t.Fatalf("SplitRange(%d,%d) produced empty range %+v", tc.n, tc.parts, r)
			}
			for i := r.Lo; i < r.Hi; i++ {
				covered[i]++
			}
		}
		for i, c := range covered {
			if c != 1 {
				t.Fatalf("SplitRange(%d,%d): index %d covered %d times", tc.n, tc.parts, i, c)
			}
		}
	}
}

func TestSplitRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("SplitRange with parts=0 did not panic")
		}
	}()
	SplitRange(10, 0)
}

func TestForVisitsEachIndexOnce(t *testing.T) {
	const n = 1000
	var counts [n]int64
	ForDynamic(n, func(i int) { atomic.AddInt64(&counts[i], 1) })
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("index %d visited %d times", i, c)
		}
	}
}

func TestForZeroAndNegative(t *testing.T) {
	called := false
	ForDynamic(0, func(i int) { called = true })
	ForDynamic(-5, func(i int) { called = true })
	for _, n := range []int{0, -5} {
		if err := ForDynamicCtx(context.Background(), n, func(i int) { called = true }); err != nil {
			t.Fatalf("ForDynamicCtx(%d): err = %v", n, err)
		}
	}
	if err := ForRangesCtx(context.Background(), nil, func(int, Range) { called = true }); err != nil {
		t.Fatalf("ForRangesCtx(nil): err = %v", err)
	}
	if called {
		t.Fatal("body called for empty range")
	}
}

// Property: SplitRange pieces are ordered and contiguous.
func TestQuickSplitRangeContiguous(t *testing.T) {
	f := func(n, parts uint8) bool {
		p := int(parts%32) + 1
		ranges := SplitRange(int(n), p)
		prev := 0
		for _, r := range ranges {
			if r.Lo != prev || r.Hi <= r.Lo {
				return false
			}
			prev = r.Hi
		}
		return prev == int(n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkForOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ForDynamic(1024, func(int) {})
	}
}
