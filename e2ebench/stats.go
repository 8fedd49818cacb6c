package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"
)

// minBeyond is how many samples must lie beyond a reported tail
// percentile for it to mean anything.
const minBeyond = 10

// tailPoint is the tail latency a run reports as loop.p99_ms: the 99th
// percentile when at least minBeyond samples lie beyond it, otherwise
// the highest percentile that has minBeyond beyond it, as long as that
// is still in the tail (at least the 95th); with fewer samples still,
// the maximum. Ranks are nearest-rank.
type tailPoint struct {
	pct    float64 // percentile reported (100 for the maximum)
	rank   int     // 1-based nearest rank of the reported sample
	n      int     // samples
	beyond int     // samples strictly after rank
	ms     float64 // the sample at rank
}

// tailPercentile applies the rule to ascending-sorted samples.
func tailPercentile(sorted []float64) tailPoint {
	n := len(sorted)
	if n == 0 {
		return tailPoint{}
	}
	rank := int(math.Ceil(0.99 * float64(n)))
	if n-rank < minBeyond {
		rank = n - minBeyond
	}
	if rank < 1 || float64(rank) < 0.95*float64(n) {
		return tailPoint{pct: 100, rank: n, n: n, ms: sorted[n-1]}
	}
	return tailPoint{pct: 100 * float64(rank) / float64(n), rank: rank, n: n, beyond: n - rank, ms: sorted[rank-1]}
}

func (t tailPoint) describe() string {
	if t.beyond == 0 {
		return fmt.Sprintf("the maximum of n=%d operations: no percentile from the 95th up has %d samples beyond it", t.n, minBeyond)
	}
	return fmt.Sprintf("p%.2f (nearest rank %d of n=%d, %d samples beyond)", t.pct, t.rank, t.n, t.beyond)
}

// median of xs (mean of the middle pair for even counts); 0 when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// phase is one closed-loop measurement: every client sends its next
// operation only after the previous one completed.
type phase struct {
	lats      []float64            // per verified operation, ms
	byKind    map[string][]float64 // the same, by operation kind
	failKind  map[string]int       // failed operations by kind
	attempted int
	failed    int
	ok        int
	elapsed   time.Duration
	sloOK     bool
	errors    []string
}

// opResult is what one operation reports to the loop.
type opResult struct {
	kind string        // endpoint class, for per-kind latency and SLO
	lat  time.Duration // send to last byte
	err  error         // non-nil: the operation failed
}

// closedLoop runs clients goroutines, each calling op with its client
// index and its own operation counter, until d has elapsed or, when
// maxOps > 0, until each client has made maxOps operations. In-flight
// operations finish; the phase lasts until the last one has.
func closedLoop(clients int, d time.Duration, maxOps int, op func(client, k int) opResult) *phase {
	var mu sync.Mutex
	ph := &phase{byKind: map[string][]float64{}, failKind: map[string]int{}}
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; (maxOps > 0 && k < maxOps) || (maxOps == 0 && time.Since(start) < d); k++ {
				res := op(c, k)
				ms := float64(res.lat) / float64(time.Millisecond)
				mu.Lock()
				ph.attempted++
				if res.err != nil {
					ph.failed++
					ph.failKind[res.kind]++
					if len(ph.errors) < 10 {
						ph.errors = append(ph.errors, fmt.Sprintf("client %d op %d (%s): %v", c, k, res.kind, res.err))
					}
				} else {
					ph.ok++
					ph.lats = append(ph.lats, ms)
					ph.byKind[res.kind] = append(ph.byKind[res.kind], ms)
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	ph.elapsed = time.Since(start)
	sort.Float64s(ph.lats)
	for _, v := range ph.byKind {
		sort.Float64s(v)
	}
	return ph
}

func (ph *phase) median() (float64, int) { return median(ph.lats), len(ph.lats) }

func (ph *phase) tail() tailPoint { return tailPercentile(ph.lats) }

// applySLO marks the phase within its latency objective when every
// operation kind's tail percentile is within that kind's target. A
// failed operation counts as missing the target.
func (ph *phase) applySLO(targets map[string]time.Duration) {
	ph.sloOK = true
	for kind, t := range targets {
		lats := append([]float64(nil), ph.byKind[kind]...)
		for i := 0; i < ph.failKind[kind]; i++ {
			lats = append(lats, math.Inf(1))
		}
		if tailPercentile(lats).ms > float64(t)/float64(time.Millisecond) {
			ph.sloOK = false
		}
	}
}

// opsPerSecond counts verified operations per second of the phase, and
// only when the phase met its latency objective.
func (ph *phase) opsPerSecond() float64 {
	if !ph.sloOK || ph.elapsed <= 0 {
		return 0
	}
	return float64(ph.ok) / ph.elapsed.Seconds()
}

// spinMillis times a fixed integer loop: a host-speed probe taken
// before and after each run, so a noisy verdict can be traced to the
// host rather than the program.
func spinMillis() float64 {
	start := time.Now()
	x := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < 40_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	el := time.Since(start)
	spinSink = x
	return float64(el) / float64(time.Millisecond)
}

var spinSink uint64
