package obs

import (
	"math"
	"testing"
)

// Objective returns the success-fraction objective.
func (s *SLO) Objective() float64 { return s.objective }

// Counts returns the cumulative (total, bad) request counts.
func (s *SLO) Counts() (total, bad int64) {
	return s.total.Load(), s.bad.Load()
}

func TestSLOBudgetStartsFullAndBurns(t *testing.T) {
	s := NewSLO("test-full", 0.1, 0.9) // 10% error budget
	if got := s.BudgetRemaining(); got != 1 {
		t.Fatalf("no-traffic budget %v, want 1", got)
	}
	// 100 requests, 5 bad: half the 10% budget burned.
	for i := 0; i < 95; i++ {
		s.Observe(0.01, true)
	}
	for i := 0; i < 5; i++ {
		s.Observe(0.01, false)
	}
	if got := s.BudgetRemaining(); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("budget %v, want 0.5", got)
	}
	if s.Exhausted(10) {
		t.Fatal("budget exhausted at half burn")
	}
}

func TestSLOLatencyOverrunsBurnBudget(t *testing.T) {
	s := NewSLO("test-lat", 0.1, 0.5)
	s.Observe(0.2, true) // success but slow: still a violation
	if _, bad := s.Counts(); bad != 1 {
		t.Fatalf("slow success recorded %d violations, want 1", bad)
	}
	s.Observe(0.05, true)
	if _, bad := s.Counts(); bad != 1 {
		t.Fatalf("fast success recorded extra violation: %d", bad)
	}
}

func TestSLOExhaustionNeedsMinRequests(t *testing.T) {
	s := NewSLO("test-min", 0.1, 0.99)
	s.Observe(0.01, false) // 1/1 bad: budget deeply negative
	if s.BudgetRemaining() > 0 {
		t.Fatalf("budget %v, want <= 0", s.BudgetRemaining())
	}
	if s.Exhausted(100) {
		t.Fatal("exhausted before the observation floor")
	}
	for i := 0; i < 99; i++ {
		s.Observe(0.01, false)
	}
	if !s.Exhausted(100) {
		t.Fatal("not exhausted with 100% failures past the floor")
	}
}

func TestSLOBudgetClampsAtMinusOne(t *testing.T) {
	s := NewSLO("test-clamp", 0.1, 0.99)
	for i := 0; i < 1000; i++ {
		s.Observe(1, false)
	}
	if got := s.BudgetRemaining(); got != -1 {
		t.Fatalf("budget %v, want clamp at -1", got)
	}
}

func TestSLORecoversWithGoodTraffic(t *testing.T) {
	s := NewSLO("test-recover", 0.1, 0.5) // generous 50% budget
	s.Observe(0.01, false)
	if s.BudgetRemaining() > 0 {
		t.Fatal("expected burned budget")
	}
	for i := 0; i < 9; i++ {
		s.Observe(0.01, true)
	}
	// 1 bad of 10 allowed-5: budget mostly back.
	if got := s.BudgetRemaining(); got <= 0 {
		t.Fatalf("budget %v after recovery, want > 0", got)
	}
}

func TestSLODefaultsBadObjective(t *testing.T) {
	s := NewSLO("test-default", 0.1, 1.5)
	if s.Objective() != 0.99 {
		t.Fatalf("objective %v, want default 0.99", s.Objective())
	}
}
