package cluster

import (
	"math"
	"testing"
)

func bestEffortRun(t *testing.T, n int) *RunResult {
	t.Helper()
	c := mustCluster(t, n)
	res, err := Run(c, constLoad{dur: 600, util: 0.8}, RunOptions{SamplePeriod: 1})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestBestEffortAverageNoOutagesIsBitIdentical(t *testing.T) {
	res := bestEffortRun(t, 16)
	want, err := res.System.Average()
	if err != nil {
		t.Fatal(err)
	}
	got, q, err := res.BestEffortAverage(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("zero-outage best effort %v != System.Average %v", got, want)
	}
	if q.Completeness != 1 || q.NodesLost != 0 {
		t.Errorf("quality: %+v", q)
	}
}

func TestBestEffortAverageWithOutages(t *testing.T) {
	res := bestEffortRun(t, 16)
	healthy, err := res.System.Average()
	if err != nil {
		t.Fatal(err)
	}
	outages := []NodeOutage{{Node: 3, At: 200}, {Node: 11, At: 450}}
	got, q, err := res.BestEffortAverage(outages)
	if err != nil {
		t.Fatal(err)
	}
	if q.NodesLost != 2 {
		t.Errorf("quality: %+v", q)
	}
	// Lost node-time: (600-200) + (600-450) over 16*600 node-seconds.
	wantComp := 1 - (400.0+150.0)/(16*600)
	if math.Abs(q.Completeness-wantComp) > 1e-9 {
		t.Errorf("completeness %v, want %v", q.Completeness, wantComp)
	}
	// A balanced constant workload: the scaled estimate should stay within
	// a few percent of the healthy aggregate (node spread is ~2.5% CV).
	if rel := math.Abs(float64(got-healthy)) / float64(healthy); rel > 0.05 {
		t.Errorf("best-effort estimate %v vs healthy %v (%.2f%% off)",
			got, healthy, 100*rel)
	}
	// Determinism: the same outage list reproduces the same estimate.
	again, q2, err := res.BestEffortAverage(outages)
	if err != nil {
		t.Fatal(err)
	}
	if again != got || q2 != q {
		t.Error("best-effort aggregation is not deterministic")
	}
}

func TestBestEffortAverageDuplicateOutagesCollapse(t *testing.T) {
	res := bestEffortRun(t, 8)
	a, qa, err := res.BestEffortAverage([]NodeOutage{{Node: 2, At: 100}})
	if err != nil {
		t.Fatal(err)
	}
	// The later duplicate must be ignored: the node is already dark.
	b, qb, err := res.BestEffortAverage([]NodeOutage{{Node: 2, At: 100}, {Node: 2, At: 400}})
	if err != nil {
		t.Fatal(err)
	}
	if a != b || qa != qb {
		t.Errorf("duplicate outage changed the result: %v/%+v vs %v/%+v", a, qa, b, qb)
	}
	if qa.NodesLost != 1 {
		t.Errorf("NodesLost = %d, want 1", qa.NodesLost)
	}
}

func TestBestEffortAverageErrors(t *testing.T) {
	res := bestEffortRun(t, 4)
	if _, _, err := res.BestEffortAverage([]NodeOutage{{Node: 4, At: 10}}); err == nil {
		t.Error("out-of-range node accepted")
	}
	if _, _, err := res.BestEffortAverage([]NodeOutage{{Node: -1, At: 10}}); err == nil {
		t.Error("negative node accepted")
	}
	all := []NodeOutage{{Node: 0, At: 50}, {Node: 1, At: 60}, {Node: 2, At: 70}, {Node: 3, At: 80}}
	if _, _, err := res.BestEffortAverage(all); err == nil {
		t.Error("total dropout produced an answer instead of an error")
	}
}
