package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"nodevar/internal/dist"
	"nodevar/internal/server"
)

const (
	// Closed-loop clients, one connection each, all in this process.
	// coverage-miss uses one: with two, each study's parallel chunks and
	// the other client's study fall into run-long interleaving regimes,
	// and the same seed's median moved between 9.7 and 13.2 ms from run
	// to run; with one it stayed within 3%. Behind a worker, two clients
	// were the steadier choice (4% against 7%). api-mix uses one too: two
	// clients and nodevard keep both cores busy, so every cycle the host
	// takes from the guest queues work; in alternating runs at the same
	// time, two clients' p50 ranged 0.162-0.210 ms and one client's
	// 0.156-0.170 ms.
	missClients    = 1
	distClients    = 2
	apiClients     = 1
	coverageWarmup = 16 // studies each set-up runs before it counts as ready
	bodyEvery      = 16 // every 16th study's body is recomputed in-process
	traceEvery     = 4  // a traced phase traces every 4th operation
)

// coverageSLO is nodevard's default latency target for /v1/coverage
// (defaultSLOTargets in internal/server).
var coverageSLO = map[string]time.Duration{kindCoverage: 30 * time.Second}

// deploy is the set of nodevard processes a server workload talks to.
type deploy struct {
	api    *proc
	worker *proc // coverage-dist only
}

// startDeploy spawns nodevard (behind it, for dist, one worker) and
// returns once the API process answers /healthz/ready.
func startDeploy(bin string, withWorker bool) (*deploy, error) {
	d := &deploy{}
	var args []string
	if withWorker {
		w, err := spawn(bin, "-role=worker")
		if err != nil {
			return nil, err
		}
		d.worker = w
		if err := waitStatus(w.base + dist.PathHealthz); err != nil {
			d.stop()
			return nil, err
		}
		args = append(args, "-workers", w.base)
	}
	api, err := spawn(bin, args...)
	if err != nil {
		d.stop()
		return nil, err
	}
	d.api = api
	if err := waitStatus(api.base + "/healthz/ready"); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

func (d *deploy) stop() {
	if d.api != nil {
		d.api.stop()
	}
	if d.worker != nil {
		d.worker.stop()
	}
}

func (d *deploy) procs() []*proc {
	if d.worker != nil {
		return []*proc{d.api, d.worker}
	}
	return []*proc{d.api}
}

// cpu is the summed CPU time of the deployment's processes.
func (d *deploy) cpu() (time.Duration, error) {
	var total time.Duration
	for _, p := range d.procs() {
		c, err := procCPU(p.pid())
		if err != nil {
			return 0, err
		}
		total += c
	}
	return total, nil
}

// peakRSS sums VmHWM over the processes doing the work.
func (d *deploy) peakRSS() (float64, error) {
	var total float64
	for _, p := range d.procs() {
		m, err := peakRSSMB(p.pid())
		if err != nil {
			return 0, err
		}
		total += m
	}
	return total, nil
}

// workCounters reads the API process's /debug/metrics and, behind it,
// the worker's Prometheus page (keys prefixed "worker:").
func (d *deploy) workCounters() (map[string]int64, error) {
	out, err := counters(d.api.base)
	if err != nil {
		return nil, err
	}
	if d.worker != nil {
		w, err := promCounters(d.worker.base)
		if err != nil {
			return nil, err
		}
		for k, v := range w {
			out["worker:"+k] = v
		}
	}
	return out, nil
}

// moved is what a timed phase did to the deployment: the work counter
// deltas and the CPU every process spent.
type moved struct {
	counters  map[string]int64
	serverCPU time.Duration
	cpuShare  float64 // benchmark CPU over all CPU
}

// measure runs run with the deployment's work counters and CPU read
// around it.
func measure(d *deploy, run func()) (moved, error) {
	before, err := d.workCounters()
	if err != nil {
		return moved{}, err
	}
	self0, err := procCPU(os.Getpid())
	if err != nil {
		return moved{}, err
	}
	srv0, err := d.cpu()
	if err != nil {
		return moved{}, err
	}
	run()
	self1, err := procCPU(os.Getpid())
	if err != nil {
		return moved{}, err
	}
	srv1, err := d.cpu()
	if err != nil {
		return moved{}, err
	}
	after, err := d.workCounters()
	if err != nil {
		return moved{}, err
	}
	self, srv := self1-self0, srv1-srv0
	return moved{counters: delta(before, after), serverCPU: srv, cpuShare: float64(self) / float64(self+srv)}, nil
}

// setupRepeated runs setup n times, keeping the deployment of the last
// one, and returns every set-up time in seconds.
func setupRepeated(n int, setup func() (*deploy, error)) (*deploy, []float64, error) {
	var secs []float64
	var d *deploy
	for i := 0; i < n; i++ {
		if d != nil {
			d.stop()
		}
		start := time.Now()
		var err error
		if d, err = setup(); err != nil {
			return nil, nil, err
		}
		secs = append(secs, time.Since(start).Seconds())
	}
	return d, secs, nil
}

// setupsAfter runs n more set-ups once the timed phase is over,
// stopping the last deployment too, and returns their times.
func setupsAfter(n int, setup func() (*deploy, error)) ([]float64, error) {
	d, secs, err := setupRepeated(n, setup)
	if err != nil {
		return nil, err
	}
	d.stop()
	return secs, nil
}

// postCoverage sends one coverage request.
func postCoverage(c *client, base string, req server.CoverageRequest) (exchange, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return exchange{}, err
	}
	return c.do("POST", base+"/v1/coverage", body)
}

// coverageSetup spawns the deployment and warms it with studies that
// are not part of the timed stream.
func coverageSetup(cfg runConfig, withWorker bool, r *report) func() (*deploy, error) {
	return func() (*deploy, error) {
		d, err := startDeploy(cfg.Nodevard, withWorker)
		if err != nil {
			return nil, err
		}
		c := newClient()
		defer c.close()
		for w := 0; w < coverageWarmup; w++ {
			ex, err := postCoverage(c, d.api.base, coverageRequest(cfg.Seed, tagWarmup, w))
			if err == nil {
				err = checkCache(ex, "miss")
			}
			r.check(err == nil, "warm-up study %d: %v", w, err)
		}
		return d, nil
	}
}

// coveragePhase sends the miss stream from index *next on, closed loop,
// and returns the every bodyEvery-th body for checking. With a
// recorder, every traceEvery-th study is traced: client spans around
// the exchange, and nodevard's own trace of it read back afterwards.
func coveragePhase(cfg runConfig, d *deploy, rec *recorder, nclients int, next *atomic.Int64) (*phase, map[int][]byte) {
	var mu sync.Mutex
	bodies := map[int][]byte{}
	clients, closeAll := newClients(nclients)
	defer closeAll()
	ph := closedLoop(nclients, cfg.Duration, 0, func(c, _ int) opResult {
		i := int(next.Add(1) - 1)
		req := coverageRequest(cfg.Seed, tagMiss, i)
		var srec *recorder
		if i%traceEvery == 0 {
			srec = rec
		}
		op := srec.begin(0, i, "bench", "coverage op")
		cs := srec.begin(op, i, "client", "POST /v1/coverage")
		ex, err := postCoverage(clients[c], d.api.base, req)
		srec.end(cs)
		if err == nil {
			err = checkCache(ex, "miss")
		}
		if err == nil && i%bodyEvery == 0 {
			mu.Lock()
			bodies[i] = ex.body
			mu.Unlock()
		}
		srec.end(op)
		if err == nil && srec != nil {
			importServerTrace(d, srec, cs, i, ex)
		}
		return opResult{kind: kindCoverage, lat: ex.lat, err: err}
	})
	ph.applySLO(coverageSLO)
	return ph, bodies
}

// verifyBodies recomputes the sampled studies in-process; a mismatch
// fails the operation.
func verifyBodies(cfg runConfig, r *report, bodies map[int][]byte) error {
	for _, i := range sortedInts(bodies) {
		want, err := expectedCoverageBody(coverageRequest(cfg.Seed, tagMiss, i))
		if err != nil {
			return err
		}
		if !bytes.Equal(bodies[i], want) {
			r.fail("study %d differs from sampling.CoverageStudy in-process: %s", i, truncate(bodies[i]))
		}
	}
	r.note("verified %d sampled study bodies against sampling.CoverageStudy in-process", len(bodies))
	return nil
}

// importServerTrace reads back nodevard's trace of one exchange and
// nests it under the client span that carried it. A trace that cannot
// be read leaves the client span without children.
func importServerTrace(d *deploy, rec *recorder, clientSpan, op int, ex exchange) {
	evs, err := fetchTrace(d.api.base, ex.header.Get("X-Trace-Id"))
	if err == nil {
		importTrace(rec, clientSpan, op, evs, serverLayer(d.worker != nil))
	}
}

// serverLayer maps a nodevard trace event to a layer. Behind a worker
// fleet the frontend's coverage_compute span is the remote job.
func serverLayer(viaWorker bool) func(serverEvent) string {
	return func(e serverEvent) string {
		switch {
		case e.Cat == "phase" || e.Cat == "chunk":
			return "sampling"
		case e.Cat == "parallel":
			return "parallel"
		case viaWorker && e.Name == "coverage_compute":
			return "dist"
		}
		return "server"
	}
}

func runCoverageMiss(cfg runConfig, r *report) error { return runCoverage(cfg, r, false) }

func runCoverageDist(cfg runConfig, r *report) error { return runCoverage(cfg, r, true) }

// runCoverage drives the unique-study stream at nodevard alone or at a
// frontend with one worker behind it.
func runCoverage(cfg runConfig, r *report, withWorker bool) error {
	d, setup, err := setupRepeated(setupRepeats, coverageSetup(cfg, withWorker, r))
	if err != nil {
		return err
	}
	defer d.stop()

	framesPerJob := int64(0)
	if withWorker {
		c, err := counters(d.api.base)
		if err != nil {
			return err
		}
		framesPerJob = c["dist.frames.checkpoint"] / coverageWarmup
		r.check(framesPerJob > 0 && c["dist.frames.checkpoint"]%coverageWarmup == 0,
			"warm-up streamed %d checkpoint frames over %d jobs", c["dist.frames.checkpoint"], coverageWarmup)
	}

	nclients := missClients
	if withWorker {
		nclients = distClients
	}
	var next atomic.Int64
	run := func(rec *recorder) (*phase, map[int][]byte, moved, error) {
		var ph *phase
		var bodies map[int][]byte
		m, err := measure(d, func() { ph, bodies = coveragePhase(cfg, d, rec, nclients, &next) })
		return ph, bodies, m, err
	}

	ph, bodies, m, err := run(nil)
	if err != nil {
		return err
	}
	r.addPhase(ph)
	checkCoverageCounts(r, m.counters, int64(ph.attempted), framesPerJob, withWorker)
	rss, err := d.peakRSS()
	if err != nil {
		return err
	}
	if err := verifyBodies(cfg, r, bodies); err != nil {
		return err
	}
	if !cfg.Trace {
		d.stop()
		after, err := setupsAfter(setupRepeats, coverageSetup(cfg, withWorker, r))
		if err != nil {
			return err
		}
		setup = append(setup, after...)
	}
	r.endToEnd(ph, setup, rss, m.serverCPU)
	r.note("client.cpu_share %.3f (benchmark CPU / all CPU in the timed phase)", m.cpuShare)
	r.note("work counts: %d studies, %d replicates, %d cache misses", ph.attempted, replicatesOf(m.counters), m.counters["server.cache.misses"])
	if !cfg.Trace {
		return nil
	}

	traced, tbodies, tm, err := run(r.spans)
	if err != nil {
		return err
	}
	r.addPhase(traced)
	checkCoverageCounts(r, tm.counters, int64(traced.attempted), framesPerJob, withWorker)
	if err := verifyBodies(cfg, r, tbodies); err != nil {
		return err
	}
	r.traceOverhead(ph, traced)
	r.setLayer("client.cpu_share", m.cpuShare, "ratio")
	r.setLayer("sampling.replicates", perOp(replicatesOf(tm.counters), traced.attempted), "count/op")
	d.stop()
	return runProbes(cfg, r)
}

// replicatesOf reads the bootstrap replicate delta from whichever
// process computed the studies.
func replicatesOf(dc map[string]int64) int64 {
	return dc["sampling.bootstrap.replicates"] + dc["worker:sampling_bootstrap_replicates"]
}

// checkCoverageCounts checks the exported work counters against the
// number of studies sent: every one a cache miss computing exactly its
// replicates, and behind a worker every one a clean remote job.
func checkCoverageCounts(r *report, dc map[string]int64, n, framesPerJob int64, withWorker bool) {
	checks := []countCheck{
		{"server.cache.misses", dc["server.cache.misses"], n},
		{"server.cache.hits", dc["server.cache.hits"], 0},
		{"sampling.bootstrap.replicates", replicatesOf(dc), n * coverageReplicates},
	}
	if withWorker {
		checks = append(checks,
			countCheck{"dist.jobs.remote_ok", dc["dist.jobs.remote_ok"], n},
			countCheck{"dist.jobs.rerouted", dc["dist.jobs.rerouted"], 0},
			countCheck{"dist.jobs.degraded_local", dc["dist.jobs.degraded_local"], 0},
			countCheck{"dist.frames.checkpoint", dc["dist.frames.checkpoint"], n * framesPerJob},
		)
	}
	for _, c := range checks {
		if err := checkCount(c.name, c.got, c.want); err != nil {
			r.fail("%v", err)
		}
	}
}

// countCheck is one exported work counter and the count it must show.
type countCheck struct {
	name      string
	got, want int64
}

func sortedInts[V any](m map[int]V) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}
