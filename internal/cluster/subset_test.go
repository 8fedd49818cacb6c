package cluster

import (
	"testing"

	"nodevar/internal/power"
)

func subsetTestRun(t *testing.T) *RunResult {
	t.Helper()
	c := mustCluster(t, 24)
	res, err := Run(c, constLoad{dur: 400, util: 0.75}, RunOptions{SamplePeriod: 2, ColdStart: true})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// wholeSubsetTrace is SubsetTraceBetween over the run's full tick span.
func wholeSubsetTrace(res *RunResult, idx []int) (*power.Trace, error) {
	return res.SubsetTraceBetween(idx, res.times[0], res.times[len(res.times)-1])
}

func TestSubsetTraceMatchesSummedNodeTraces(t *testing.T) {
	res := subsetTestRun(t)
	idx := []int{3, 0, 17, 9}
	fast, err := wholeSubsetTrace(res, idx)
	if err != nil {
		t.Fatal(err)
	}
	// Reference: per-tick sum of the individual node traces in idx order.
	traces := make([][]power.Sample, len(idx))
	for i, node := range idx {
		traces[i] = res.NodeTrace(node).Samples()
	}
	if fast.Len() != len(traces[0]) {
		t.Fatalf("length mismatch: %d vs %d", fast.Len(), len(traces[0]))
	}
	for k, s := range fast.Samples() {
		var want power.Watts
		for i := range idx {
			want += traces[i][k].Power
		}
		if s.Power != want || s.Time != traces[0][k].Time {
			t.Fatalf("sample %d: got (%v, %v), want (%v, %v)",
				k, s.Time, s.Power, traces[0][k].Time, want)
		}
	}
}

func TestSubsetTraceBetweenMatchesFullTraceReads(t *testing.T) {
	res := subsetTestRun(t)
	idx := []int{1, 8, 20}
	full, err := wholeSubsetTrace(res, idx)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := 97.0, 253.0 // deliberately off-tick boundaries
	win, err := res.SubsetTraceBetween(idx, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	if win.Len() >= full.Len() {
		t.Errorf("windowed trace not smaller: %d vs %d samples", win.Len(), full.Len())
	}
	if win.Start() > lo || win.End() < hi {
		t.Fatalf("window [%v, %v] not covered by trace span [%v, %v]",
			lo, hi, win.Start(), win.End())
	}
	for x := lo; x <= hi; x += 3.7 {
		if got, want := win.At(x), full.At(x); got != want {
			t.Fatalf("At(%v): windowed %v != full %v", x, got, want)
		}
	}
	if got, want := win.At(hi), full.At(hi); got != want {
		t.Fatalf("At(hi): windowed %v != full %v", got, want)
	}
}

func TestSubsetTraceRejectsBadInput(t *testing.T) {
	res := subsetTestRun(t)
	if _, err := wholeSubsetTrace(res, nil); err == nil {
		t.Error("empty subset accepted")
	}
	if _, err := wholeSubsetTrace(res, []int{0, 24}); err == nil {
		t.Error("out-of-range index accepted")
	}
	if _, err := wholeSubsetTrace(res, []int{-1}); err == nil {
		t.Error("negative index accepted")
	}
}
