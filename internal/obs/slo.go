package obs

import "sync/atomic"

// SLO tracks one endpoint's service-level objective as an error budget:
// with objective o, a fraction (1-o) of requests may be "bad" (failed,
// or slower than the latency target) before the budget is exhausted.
// Counters are cumulative over process lifetime — the serving layer is
// expected to restart far more often than a calendar SLO window — and
// all updates are single atomic adds, safe on request hot paths.
type SLO struct {
	target    float64 // latency target in seconds
	objective float64 // e.g. 0.99

	total atomic.Int64
	bad   atomic.Int64

	// resolved metric handles: slo.requests / slo.violations /
	// slo.error_budget_remaining, labelled by endpoint.
	cReqs   *Counter
	cViol   *Counter
	gBudget *Gauge
}

// Package-level SLO metric families (one child per endpoint).
var (
	vSLORequests   = NewCounterVec("slo.requests", "endpoint")
	vSLOViolations = NewCounterVec("slo.violations", "endpoint")
	vSLOBudget     = NewGaugeVec("slo.error_budget_remaining", "endpoint")
)

// NewSLO builds the SLO tracker for one endpoint: requests slower than
// latencyTarget seconds (or failed outright) count against an objective
// of the given success fraction. Objectives outside (0,1) default to
// 0.99.
func NewSLO(endpoint string, latencyTarget, objective float64) *SLO {
	if !(objective > 0 && objective < 1) {
		objective = 0.99
	}
	s := &SLO{
		target:    latencyTarget,
		objective: objective,
		cReqs:     vSLORequests.With(endpoint),
		cViol:     vSLOViolations.With(endpoint),
		gBudget:   vSLOBudget.With(endpoint),
	}
	s.gBudget.Set(1)
	return s
}

// Observe records one request outcome: a violation when it failed or
// overran the latency target. It refreshes the budget gauge so scrapes
// see burn without recomputation.
func (s *SLO) Observe(latencySeconds float64, success bool) {
	s.total.Add(1)
	s.cReqs.Inc()
	if !success || latencySeconds > s.target {
		s.bad.Add(1)
		s.cViol.Inc()
	}
	s.gBudget.Set(s.BudgetRemaining())
}

// BudgetRemaining returns the fraction of the error budget left: 1 with
// no traffic, 0 exactly at the objective boundary, negative (clamped at
// -1) when the objective is already blown.
func (s *SLO) BudgetRemaining() float64 {
	total := s.total.Load()
	if total == 0 {
		return 1
	}
	allowed := (1 - s.objective) * float64(total)
	if allowed <= 0 {
		return -1
	}
	rem := 1 - float64(s.bad.Load())/allowed
	if rem < -1 {
		rem = -1
	}
	if rem > 1 {
		rem = 1
	}
	return rem
}

// Exhausted reports whether the error budget is spent, requiring at
// least minRequests observations first so a single early failure does
// not flap readiness.
func (s *SLO) Exhausted(minRequests int64) bool {
	if s.total.Load() < minRequests {
		return false
	}
	return s.BudgetRemaining() <= 0
}
