package cluster

import (
	"errors"
	"fmt"
	"sort"

	"nodevar/internal/obs"
	"nodevar/internal/power"
)

var mBestEffort = obs.NewCounter("cluster.best_effort_aggregations")

// NodeOutage marks one node as silent from time At (seconds into the
// run) onward: whole-node dropout mid-run. The aggregation layer knows
// which nodes stopped reporting but not what they drew afterwards.
type NodeOutage struct {
	Node int
	At   float64
}

// AggregateQuality describes a best-effort whole-system aggregation.
type AggregateQuality struct {
	// NodesLost is how many nodes dropped out before the run ended.
	NodesLost int
	// Completeness is observed node-time over total node-time, in [0, 1].
	Completeness float64
}

// BestEffortAverage estimates the whole-system time-averaged wall power
// when some nodes stopped reporting mid-run. At each tick the surviving
// nodes' aggregate power is scaled by N/alive — the extrapolation a
// site applies when racks go dark but the submission window cannot be
// rerun. The returned quality reports lost nodes and the fraction of
// node-time actually observed; callers must surface completeness < 1 as
// a degraded measurement, never as an exact one.
//
// With no outages it returns System.Average() itself — bit-identical to
// the healthy aggregation — and complete quality.
func (r *RunResult) BestEffortAverage(outages []NodeOutage) (power.Watts, AggregateQuality, error) {
	c := r.Cluster
	n := c.N()
	q := AggregateQuality{Completeness: 1}
	for _, o := range outages {
		if o.Node < 0 || o.Node >= n {
			return 0, q, fmt.Errorf("cluster: outage node %d out of range [0, %d)", o.Node, n)
		}
	}
	if len(r.times) < 2 {
		return 0, q, errors.New("cluster: run too short to aggregate")
	}
	if len(outages) == 0 {
		avg, err := r.System.Average()
		return avg, q, err
	}
	// Sort a copy by outage time so nodes can be retired as the tick
	// walk passes each outage. Duplicate nodes are collapsed to their
	// earliest outage.
	sorted := make([]NodeOutage, len(outages))
	copy(sorted, outages)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a].At < sorted[b].At })
	retired := make(map[int]bool, len(sorted))

	m := &c.Model
	aliveIdle, aliveDyn, aliveFan := c.sumIdle, c.sumDynamic, c.sumFan
	alive := n
	next := 0

	duration := r.times[len(r.times)-1] - r.times[0]
	var lostNodeTime float64
	samples := make([]power.Sample, len(r.times))
	for k, t := range r.times {
		for next < len(sorted) && sorted[next].At <= t {
			o := sorted[next]
			next++
			if retired[o.Node] {
				continue
			}
			retired[o.Node] = true
			ns := c.nodes[o.Node]
			aliveIdle -= ns.idle
			aliveDyn -= ns.dynamic
			aliveFan -= ns.fan
			alive--
			lostNodeTime += r.times[len(r.times)-1] - t
		}
		if alive == 0 {
			return 0, AggregateQuality{
					NodesLost:    len(retired),
					Completeness: 1 - lostNodeTime/(float64(n)*duration),
				}, errors.New(
					"cluster: every node dropped out; no data to aggregate")
		}
		// systemWallPower's arithmetic over the alive subset, scaled up
		// to the full machine.
		silicon := (m.IdleWatts*aliveIdle + m.DynamicWatts*aliveDyn*r.utilDyn[k]) * r.thermal[k]
		dcTotal := silicon + r.fan[k]*aliveFan
		meanDC := dcTotal / float64(alive)
		wall := dcTotal / m.PSU.Efficiency(power.Watts(meanDC))
		if alive < n {
			wall *= float64(n) / float64(alive)
		}
		samples[k] = power.Sample{Time: t, Power: power.Watts(wall)}
	}
	tr, err := power.NewTrace(samples)
	if err != nil {
		return 0, q, err
	}
	avg, err := tr.Average()
	if err != nil {
		return 0, q, err
	}
	q.NodesLost = len(retired)
	if duration > 0 && n > 0 {
		q.Completeness = 1 - lostNodeTime/(float64(n)*duration)
	}
	mBestEffort.Inc()
	return avg, q, nil
}
