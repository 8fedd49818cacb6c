package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"nodevar/internal/core"
	"nodevar/internal/fleet"
	"nodevar/internal/methodology"
	"nodevar/internal/obs"
	"nodevar/internal/sampling"
	"nodevar/internal/server"
	"nodevar/internal/systems"
)

// Fixed work of the per-layer probes. A traced run of any workload runs
// all of them, so every traced run reports every per-layer metric from
// the same inputs.
const (
	probeStudies      = 32   // coverage studies, in-process and through each server shape
	probeAPIOps       = 2000 // api-mix operations per client
	probeMeterRepeats = 3    // CompareMeters calls
	probeFleetBatches = 64   // ingest batches replayed per fleet
	probeSnapshots    = 200  // Fleet.Snapshot calls per fleet
	distortionNodes   = 128
	distortionSystem  = "lrz"
	probeOp           = -1 // span operation ID of probe work
)

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }

// runProbes measures every layer with fixed work, recording spans.
func runProbes(cfg runConfig, r *report) error {
	if err := probeInProcess(cfg, r); err != nil {
		return err
	}
	if err := probeFleet(cfg, r); err != nil {
		return err
	}
	bodies, missP50, err := probeCoverageServer(cfg, r)
	if err != nil {
		return err
	}
	if err := probeAPIServer(cfg, r); err != nil {
		return err
	}
	return probeDist(cfg, r, bodies, missP50)
}

// probeInProcess covers systems, core, report, sampling, methodology
// and the Go runtime.
func probeInProcess(cfg runConfig, r *report) error {
	rec := r.spans
	ctx := context.Background()
	root := rec.begin(0, probeOp, "bench", "in-process probes")
	defer rec.end(root)

	systems.ResetCalibrationCache()
	sp := rec.begin(root, probeOp, "systems", "calibrate presets")
	t := time.Now()
	err := calibratePresets()
	r.setLayer("systems.calibration_ms", msSince(t), "ms")
	rec.end(sp)
	if err != nil {
		return err
	}

	// Each experiment alone, in sequence.
	perExp := map[core.ID]float64{}
	var sum float64
	for _, id := range core.IDs() {
		sp := rec.begin(root, probeOp, "core", "RunCtx "+string(id))
		t := time.Now()
		_, err := core.RunCtx(ctx, id, reproOptions)
		perExp[id] = msSince(t)
		rec.end(sp)
		if err != nil {
			return fmt.Errorf("core.RunCtx(%s): %w", id, err)
		}
		sum += perExp[id]
	}
	rest := sum
	for _, id := range []core.ID{core.Ablation, core.Figure3, core.Figure1, core.Rules, core.VarianceDecomp, core.Meters} {
		r.setLayer("core."+string(id)+"_ms", perExp[id], "ms")
		rest -= perExp[id]
	}
	r.setLayer("core.rest_ms", rest, "ms")

	// One full pass: RunAll's schedule, rendering, work and allocation.
	c0 := obs.Default().Snapshot().Counters
	a0, g0 := memDelta()
	sp = rec.begin(root, probeOp, "core", "core.RunAllCtx")
	t = time.Now()
	results, err := core.RunAllCtx(ctx, reproOptions)
	runAll := msSince(t)
	rec.end(sp)
	if err != nil {
		return err
	}
	sp = rec.begin(root, probeOp, "report", "Result.Render")
	t = time.Now()
	var buf bytes.Buffer
	for _, res := range results {
		if err := res.Render(&buf); err != nil {
			return err
		}
		buf.WriteByte('\n')
	}
	r.setLayer("report.render_ms", msSince(t), "ms")
	rec.end(sp)
	a1, g1 := memDelta()
	c1 := obs.Default().Snapshot().Counters
	r.check(checkReproOutput(buf.Bytes(), buf.Bytes()) == nil, "probe pass lacks a flagship number")
	r.setLayer("core.schedule_efficiency", sum/(runAll*float64(runtime.GOMAXPROCS(0))), "ratio")
	r.setLayer("cluster.ticks", float64(c1["cluster.ticks"]-c0["cluster.ticks"]), "count/op")
	r.setLayer("meter.measures", float64(c1["meter.measures"]-c0["meter.measures"]), "count/op")
	r.setLayer("go.alloc_mb_per_op", a1-a0, "MB/op")
	r.setLayer("go.gc_cycles_per_op", float64(g1-g0), "count/op")

	// The coverage study alone, on the coverage-miss stream's configs.
	var studies []float64
	total := time.Duration(0)
	for i := 0; i < probeStudies; i++ {
		scfg, err := studyConfig(coverageRequest(cfg.Seed, tagMiss, i))
		if err != nil {
			return err
		}
		sp := rec.begin(root, probeOp, "sampling", "CoverageStudyCtx")
		t := time.Now()
		_, err = sampling.CoverageStudyCtx(ctx, scfg)
		el := time.Since(t)
		rec.end(sp)
		if err != nil {
			return err
		}
		total += el
		studies = append(studies, float64(el)/float64(time.Millisecond))
	}
	r.setLayer("sampling.study_ms", median(studies), "ms")
	r.setLayer("sampling.replicates_per_s", float64(probeStudies*coverageReplicates)/total.Seconds(), "1/s")

	// Meter models against the distortion target.
	target, err := core.DistortionTarget(distortionSystem, distortionNodes, 1, reproOptions.Seed)
	if err != nil {
		return err
	}
	var models []methodology.NamedModel
	for _, p := range systems.MeterPresets() {
		if p.Key != "reference" {
			models = append(models, methodology.NamedModel{Name: p.Key, Model: p.Model})
		}
	}
	var compare []float64
	for i := 0; i < probeMeterRepeats; i++ {
		sp := rec.begin(root, probeOp, "methodology", "CompareMeters")
		t := time.Now()
		_, err := methodology.CompareMeters(target, models, methodology.DistortionConfig{Seed: reproOptions.Seed})
		compare = append(compare, msSince(t))
		rec.end(sp)
		if err != nil {
			return err
		}
	}
	r.setLayer("methodology.compare_meters_ms", median(compare), "ms")
	return nil
}

// probeFleet replays api-mix ingest batches, duplicates included, into
// an in-process fleet.Registry and times snapshots of the result.
func probeFleet(cfg runConfig, r *report) error {
	rec := r.spans
	root := rec.begin(0, probeOp, "bench", "fleet replay")
	defer rec.end(root)
	reg := fleet.NewRegistry(0, fleet.Config{})
	var ingestTime time.Duration
	var samples, accepted, dups, wantAccepted, wantDups int
	for c := 0; c < apiClients; c++ {
		s := newAPIStream(cfg.Seed, c, nil)
		for b := 0; b < probeFleetBatches*fleetsPerClient; b++ {
			f := b % fleetsPerClient
			var body []byte
			if b >= fleetsPerClient && b%duplicateEvery == 0 {
				body = s.fleets[f].last
				wantDups += batchSize
			} else {
				body = s.ingest(f).body
				wantAccepted += batchSize
			}
			var req server.IngestRequest
			if err := json.Unmarshal(body, &req); err != nil {
				return err
			}
			batch := make([]fleet.Sample, len(req.Samples))
			for i, x := range req.Samples {
				batch[i] = fleet.Sample{Node: x.Node, Seq: x.Seq, Watts: x.Watts}
			}
			sp := rec.begin(root, probeOp, "fleet", "Registry.Ingest")
			t := time.Now()
			res, err := reg.Ingest(req.Fleet, batch)
			ingestTime += time.Since(t)
			rec.end(sp)
			if err != nil {
				return err
			}
			samples += len(batch)
			accepted += res.Accepted
			dups += res.Duplicates
		}
	}
	r.check(accepted == wantAccepted && dups == wantDups,
		"fleet replay accepted %d and skipped %d, want %d and %d", accepted, dups, wantAccepted, wantDups)
	var snaps []float64
	for c := 0; c < apiClients; c++ {
		for f := 0; f < fleetsPerClient; f++ {
			fl := reg.Get(fleetName(c, f))
			for i := 0; i < probeSnapshots; i++ {
				sp := rec.begin(root, probeOp, "fleet", "Fleet.Snapshot")
				t := time.Now()
				fl.Snapshot(0.95)
				snaps = append(snaps, float64(time.Since(t))/float64(time.Microsecond))
				rec.end(sp)
			}
		}
	}
	r.setLayer("fleet.ingest_us_per_sample", float64(ingestTime)/float64(time.Microsecond)/float64(samples), "us")
	r.setLayer("fleet.snapshot_us", median(snaps), "us")
	r.setLayer("fleet.samples_accepted", float64(accepted), "count")
	r.setLayer("fleet.samples_duplicate", float64(dups), "count")
	return nil
}

// probeCoverageServer sends the first probeStudies studies of the miss
// stream to a single nodevard, one at a time, and reads every trace
// back. It returns the bodies and the median latency for the dist
// probe.
func probeCoverageServer(cfg runConfig, r *report) (map[int][]byte, float64, error) {
	d, err := startDeploy(cfg.Nodevard, false)
	if err != nil {
		return nil, 0, err
	}
	defer d.stop()
	bodies, lats, err := probeStudiesVia(cfg, r, d)
	if err != nil {
		return nil, 0, err
	}
	if err := verifyBodies(cfg, r, bodies); err != nil {
		return nil, 0, err
	}
	return bodies, median(lats), nil
}

// probeStudiesVia sends the probe studies one at a time through d,
// importing each request's server trace, and records the server-side
// split of the request.
func probeStudiesVia(cfg runConfig, r *report, d *deploy) (map[int][]byte, []float64, error) {
	rec := r.spans
	viaWorker := d.worker != nil
	root := rec.begin(0, probeOp, "bench", "coverage probe")
	defer rec.end(root)
	c := newClient()
	defer c.close()
	bodies := map[int][]byte{}
	var lats, overhead, share []float64
	for i := 0; i < probeStudies; i++ {
		op := rec.begin(root, i, "bench", "coverage op")
		cs := rec.begin(op, i, "client", "POST /v1/coverage")
		ex, err := postCoverage(c, d.api.base, coverageRequest(cfg.Seed, tagMiss, i))
		rec.end(cs)
		if err == nil {
			err = checkCache(ex, "miss")
		}
		r.check(err == nil, "probe study %d: %v", i, err)
		if err != nil {
			rec.end(op)
			continue
		}
		bodies[i] = ex.body
		lats = append(lats, float64(ex.lat)/float64(time.Millisecond))
		evs, err := fetchTrace(d.api.base, ex.header.Get("X-Trace-Id"))
		if err != nil {
			rec.end(op)
			return nil, nil, err
		}
		importTrace(rec, cs, i, evs, serverLayer(viaWorker))
		rec.end(op)
		req, ok1 := eventDur(evs, "coverage")
		compute, ok2 := eventDur(evs, "coverage_compute")
		if ok1 && ok2 {
			overhead = append(overhead, req-compute)
		}
		if study, ok := eventDur(evs, "coverage_study"); ok && ok1 {
			share = append(share, study/req)
		}
	}
	if !viaWorker {
		r.setLayer("server.overhead_ms", median(overhead), "ms")
		r.setLayer("server.study_share", median(share), "ratio")
		r.note("coverage_study covers %.3f of the request span (median of %d traces)", median(share), len(share))
	}
	return bodies, lats, nil
}

// probeAPIServer runs a fixed number of api-mix operations against a
// freshly warmed nodevard.
func probeAPIServer(cfg runConfig, r *report) error {
	pools, err := newAPIPools(cfg.Seed)
	if err != nil {
		return err
	}
	t, _, err := apiSetupN(cfg, r, pools, 1)
	if err != nil {
		return err
	}
	defer t.d.stop()
	ph, tallies, m, err := measuredAPIPhase(t, r, r.spans, 0, probeAPIOps)
	if err != nil {
		return err
	}
	for _, k := range []string{kindSampleSize, kindRules, kindHit, kindIngest, kindFleetRead} {
		r.setLayer("api."+k+"_ms", median(ph.byKind[k]), "ms")
	}
	var resp int64
	for _, tl := range tallies {
		resp += tl.respBytes
	}
	r.setLayer("server.cpu_ms_per_req", float64(m.serverCPU)/float64(time.Millisecond)/float64(ph.attempted), "ms")
	r.setLayer("server.resp_bytes", float64(resp)/float64(ph.attempted), "bytes")
	life, err := counters(t.d.api.base)
	if err != nil {
		return err
	}
	lookups := life["server.cache.hits"] + life["server.cache.misses"] + life["server.cache.coalesced"]
	r.setLayer("server.cache.lookups", float64(lookups), "count")
	r.setLayer("server.cache.hit_ratio", perOp(life["server.cache.hits"], int(lookups)), "ratio")
	r.setLayer("server.cache.miss_ratio", perOp(life["server.cache.misses"], int(lookups)), "ratio")
	r.setLayer("server.cache.evictions", float64(life["server.cache.evictions"]), "count")
	return nil
}

// probeDist sends the same probe studies through a frontend and one
// worker; the bodies must be byte-identical to the single-process ones.
func probeDist(cfg runConfig, r *report, missBodies map[int][]byte, missP50 float64) error {
	d, err := startDeploy(cfg.Nodevard, true)
	if err != nil {
		return err
	}
	defer d.stop()
	before, err := d.workCounters()
	if err != nil {
		return err
	}
	fe0, err := procCPU(d.api.pid())
	if err != nil {
		return err
	}
	w0, err := procCPU(d.worker.pid())
	if err != nil {
		return err
	}
	bodies, lats, err := probeStudiesVia(cfg, r, d)
	if err != nil {
		return err
	}
	fe1, err := procCPU(d.api.pid())
	if err != nil {
		return err
	}
	w1, err := procCPU(d.worker.pid())
	if err != nil {
		return err
	}
	after, err := d.workCounters()
	if err != nil {
		return err
	}
	for i, b := range bodies {
		r.check(bytes.Equal(b, missBodies[i]), "study %d through the worker differs from the single-process body", i)
	}
	dc := delta(before, after)
	jobs := float64(len(bodies))
	r.setLayer("dist.overhead_ms", median(lats)-missP50, "ms")
	r.setLayer("dist.frames_per_job", float64(dc["dist.frames.checkpoint"])/jobs, "count")
	r.setLayer("dist.frontend_cpu_ms_per_job", float64(fe1-fe0)/float64(time.Millisecond)/jobs, "ms")
	r.setLayer("dist.worker_cpu_ms_per_job", float64(w1-w0)/float64(time.Millisecond)/jobs, "ms")
	r.setLayer("dist.rerouted", float64(dc["dist.jobs.rerouted"]), "count")
	r.setLayer("dist.degraded_local", float64(dc["dist.jobs.degraded_local"]), "count")
	return nil
}
