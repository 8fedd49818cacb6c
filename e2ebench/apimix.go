package main

import (
	"bytes"
	"fmt"
	"time"
)

// apiSLO is nodevard's default latency target per endpoint class
// (defaultSLOTargets in internal/server); a cache hit is served by the
// coverage endpoint.
var apiSLO = map[string]time.Duration{
	kindSampleSize: 250 * time.Millisecond,
	kindRules:      250 * time.Millisecond,
	kindHit:        30 * time.Second,
	kindIngest:     250 * time.Millisecond,
	kindFleetRead:  250 * time.Millisecond,
}

// apiTarget is a warmed api-mix deployment: the hit set computed, each
// client's fleets created.
type apiTarget struct {
	d       *deploy
	pools   *apiPools
	hits    [][]byte // setup bodies of the hit set
	streams []*apiStream
}

// apiSetupN spawns nodevard, computes the hit set and creates every
// client's fleets with a first batch, n times over; the last
// deployment is kept.
func apiSetupN(cfg runConfig, r *report, pools *apiPools, n int) (*apiTarget, []float64, error) {
	var t *apiTarget
	d, secs, err := setupRepeated(n, func() (*deploy, error) {
		d, err := startDeploy(cfg.Nodevard, false)
		if err != nil {
			return nil, err
		}
		t = &apiTarget{d: d, pools: pools}
		c := newClient()
		defer c.close()
		for i, req := range pools.hits {
			ex, err := postCoverage(c, d.api.base, req)
			if err == nil {
				err = checkCache(ex, "miss")
			}
			r.check(err == nil, "hit-set study %d: %v", i, err)
			t.hits = append(t.hits, ex.body)
		}
		for cl := 0; cl < apiClients; cl++ {
			s := newAPIStream(cfg.Seed, cl, pools)
			for f := 0; f < fleetsPerClient; f++ {
				op := s.ingest(f)
				ex, err := c.do(op.method, d.api.base+op.path, op.body)
				if err == nil {
					err = checkExact(ex, op.want)
				}
				r.check(err == nil, "creating fleet %s: %v", fleetName(cl, f), err)
			}
			t.streams = append(t.streams, s)
		}
		return d, nil
	})
	if err != nil {
		return nil, nil, err
	}
	t.d = d
	return t, secs, nil
}

// verifyHitSet checks the setup bodies against in-process studies.
func (t *apiTarget) verifyHitSet(r *report) error {
	for i, req := range t.pools.hits {
		want, err := expectedCoverageBody(req)
		if err != nil {
			return err
		}
		if !bytes.Equal(t.hits[i], want) {
			r.fail("hit-set study %d differs from sampling.CoverageStudy in-process", i)
		}
	}
	return nil
}

// meanEvery: every fleet read's sample count is checked, and every
// 16th read's mean too (a batch mean costs O(samples) per read).
const meanEvery = 16

// fleetRead is a fleet view read during the timed phase, checked
// afterwards against the batch statistics.
type fleetRead struct {
	client, fleet, count int
	body                 []byte
}

// apiTally is what one client's operations must have done to the
// server's work counters.
type apiTally struct {
	hits, accepted, dups int64
	reads                []fleetRead
	respBytes            int64
}

// apiPhase runs the mix, closed loop, until d elapses (or maxOps per
// client when maxOps > 0). With a recorder, every traceEvery-th
// operation of each client is traced.
func apiPhase(t *apiTarget, rec *recorder, d time.Duration, maxOps int) (*phase, []apiTally) {
	clients, closeAll := newClients(apiClients)
	defer closeAll()
	tallies := make([]apiTally, apiClients)
	ph := closedLoop(apiClients, d, maxOps, func(c, k int) opResult {
		o := t.streams[c].next()
		var srec *recorder
		if k%traceEvery == 0 {
			srec = rec
		}
		id := c<<24 | k
		sp := srec.begin(0, id, "bench", o.kind+" op")
		cs := srec.begin(sp, id, "client", o.method+" "+o.path)
		ex, err := clients[c].do(o.method, t.d.api.base+o.path, o.body)
		srec.end(cs)
		if err == nil {
			err = verifyAPIOp(t, o, ex)
		}
		srec.end(sp)
		if err == nil && srec != nil {
			importServerTrace(t.d, srec, cs, id, ex)
		}
		tl := &tallies[c]
		tl.respBytes += int64(len(ex.body))
		switch o.kind {
		case kindHit:
			tl.hits++
		case kindIngest:
			tl.accepted += int64(o.accept)
			tl.dups += int64(o.dups)
		case kindFleetRead:
			if err == nil {
				tl.reads = append(tl.reads, fleetRead{client: c, fleet: o.fleet, count: o.count, body: ex.body})
			}
		}
		return opResult{kind: o.kind, lat: ex.lat, err: err}
	})
	ph.applySLO(apiSLO)
	return ph, tallies
}

// verifyAPIOp checks one response; fleet reads are checked after the
// phase.
func verifyAPIOp(t *apiTarget, o apiOp, ex exchange) error {
	switch o.kind {
	case kindHit:
		if err := checkCache(ex, "hit"); err != nil {
			return err
		}
		if !bytes.Equal(ex.body, t.hits[o.hit]) {
			return fmt.Errorf("cache hit %d differs from its set-up body", o.hit)
		}
		return nil
	case kindFleetRead:
		return checkStatus(ex)
	}
	return checkExact(ex, o.want)
}

// checkAPIWork checks the fleet reads and the work counters a phase
// moved.
func checkAPIWork(t *apiTarget, r *report, tallies []apiTally, dc map[string]int64) {
	var sum apiTally
	for _, tl := range tallies {
		sum.hits += tl.hits
		sum.accepted += tl.accepted
		sum.dups += tl.dups
		for i, rd := range tl.reads {
			values := t.streams[rd.client].fleets[rd.fleet].values[:rd.count]
			var err error
			if i%meanEvery == 0 {
				err = checkFleetRead(rd.body, values)
			} else {
				err = checkFleetCount(rd.body, len(values))
			}
			if err != nil {
				r.fail("%s: %v", fleetName(rd.client, rd.fleet), err)
			}
		}
	}
	for _, c := range []countCheck{
		{"sampling.bootstrap.replicates", dc["sampling.bootstrap.replicates"], 0},
		{"server.cache.hits", dc["server.cache.hits"], sum.hits},
		{"server.cache.misses", dc["server.cache.misses"], 0},
		{"fleet.samples_accepted", dc["fleet.samples_accepted"], sum.accepted},
		{"fleet.samples_duplicate", dc["fleet.samples_duplicate"], sum.dups},
	} {
		if err := checkCount(c.name, c.got, c.want); err != nil {
			r.fail("%v", err)
		}
	}
	r.note("work counts: %d cache hits, %d samples accepted, %d duplicates, %d replicates",
		sum.hits, sum.accepted, sum.dups, dc["sampling.bootstrap.replicates"])
}

// measuredAPIPhase runs one phase, checks it, and returns what it
// moved.
func measuredAPIPhase(t *apiTarget, r *report, rec *recorder, d time.Duration, maxOps int) (*phase, []apiTally, moved, error) {
	var ph *phase
	var tallies []apiTally
	m, err := measure(t.d, func() { ph, tallies = apiPhase(t, rec, d, maxOps) })
	if err != nil {
		return nil, nil, moved{}, err
	}
	r.addPhase(ph)
	checkAPIWork(t, r, tallies, m.counters)
	return ph, tallies, m, nil
}

func runAPIMix(cfg runConfig, r *report) error {
	pools, err := newAPIPools(cfg.Seed)
	if err != nil {
		return err
	}
	t, setup, err := apiSetupN(cfg, r, pools, setupRepeats)
	if err != nil {
		return err
	}
	defer t.d.stop()
	if err := t.verifyHitSet(r); err != nil {
		return err
	}

	ph, _, m, err := measuredAPIPhase(t, r, nil, cfg.Duration, 0)
	if err != nil {
		return err
	}
	rss, err := t.d.peakRSS()
	if err != nil {
		return err
	}
	if !cfg.Trace {
		t.d.stop()
		again, after, err := apiSetupN(cfg, r, pools, setupRepeats)
		if err != nil {
			return err
		}
		again.d.stop()
		setup = append(setup, after...)
	}
	r.endToEnd(ph, setup, rss, m.serverCPU)
	for _, k := range sortedKeys(ph.byKind) {
		r.note("  %-12s n=%-6d p50 %.4f ms  %s", k, len(ph.byKind[k]), median(ph.byKind[k]), tailPercentile(ph.byKind[k]).describe())
	}
	r.note("client.cpu_share %.3f (benchmark CPU / all CPU in the timed phase)", m.cpuShare)
	if !cfg.Trace {
		return nil
	}

	traced, _, tm, err := measuredAPIPhase(t, r, r.spans, cfg.Duration, 0)
	if err != nil {
		return err
	}
	r.traceOverhead(ph, traced)
	r.setLayer("client.cpu_share", m.cpuShare, "ratio")
	r.setLayer("sampling.replicates", perOp(tm.counters["sampling.bootstrap.replicates"], traced.attempted), "count/op")
	t.d.stop()
	return runProbes(cfg, r)
}
