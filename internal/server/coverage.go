package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"nodevar/internal/obs"
	"nodevar/internal/sampling"
	"nodevar/internal/systems"
)

// Request-size guards, checked before any work starts. They are fixed,
// not operator settings, so every request's worst-case cost is a
// property of the code. A coverage study's cost is
// replicates × (pilot + largest sample size) in CPU — the count-based
// replicate loop never materializes the population — so maxPopulation
// is only a sanity bound on nonsensical requests. A distortion study
// materializes one power trace per node, so maxDistortionNodes bounds
// real memory and CPU.
const (
	maxReplicates      = 200000 // the paper's scale
	maxPopulation      = 1_000_000_000
	maxPilotData       = 65536
	maxSampleSizes     = 32
	maxLevels          = 16
	maxDistortionNodes = 256
	ingestMaxBatch     = 4096 // samples per /v1/ingest batch
)

// coverageConfig resolves a request into a runnable study config and
// the normalized request (defaults applied) that seeds the cache key
// and response echo. Chunks is pinned so the deterministic
// decomposition — and therefore byte-identity of cached results — never
// depends on a library default changing.
func (s *Server) coverageConfig(req CoverageRequest) (sampling.CoverageConfig, CoverageRequest, error) {
	if req.Seed == 0 {
		req.Seed = 2015
	}
	if req.Replicates == 0 {
		req.Replicates = 2000
	}
	if len(req.SampleSizes) == 0 {
		req.SampleSizes = []int{3, 5, 10, 20}
	}
	if len(req.Levels) == 0 {
		req.Levels = []float64{0.80, 0.95, 0.99}
	}
	switch {
	case req.Replicates < 0 || req.Replicates > maxReplicates:
		return sampling.CoverageConfig{}, req, fmt.Errorf("replicates outside [1, %d]", maxReplicates)
	case req.Population < 0 || req.Population > maxPopulation:
		return sampling.CoverageConfig{}, req, fmt.Errorf("population outside [2, %d]", maxPopulation)
	case req.PilotSize < 0:
		return sampling.CoverageConfig{}, req, fmt.Errorf("pilot_size must be positive, got %d", req.PilotSize)
	case len(req.SampleSizes) > maxSampleSizes:
		return sampling.CoverageConfig{}, req, fmt.Errorf("at most %d sample sizes per request", maxSampleSizes)
	case len(req.Levels) > maxLevels:
		return sampling.CoverageConfig{}, req, fmt.Errorf("at most %d confidence levels per request", maxLevels)
	case len(req.PilotData) > maxPilotData:
		return sampling.CoverageConfig{}, req, fmt.Errorf("pilot_data capped at %d nodes", maxPilotData)
	}

	var pilot []float64
	if len(req.PilotData) > 0 {
		if req.System != "" || req.PilotSize != 0 {
			return sampling.CoverageConfig{}, req, errors.New("pilot_data replaces system/pilot_size; give one or the other")
		}
		if req.Population == 0 {
			return sampling.CoverageConfig{}, req, errors.New("pilot_data needs an explicit population")
		}
		pilot = req.PilotData
	} else {
		if req.System == "" {
			req.System = "lrz"
		}
		if req.PilotSize == 0 {
			req.PilotSize = 516
		}
		spec, err := systems.ByKey(req.System)
		if err != nil {
			return sampling.CoverageConfig{}, req, err
		}
		pilot, err = systems.PilotSample(spec, req.Seed, req.PilotSize)
		if err != nil {
			return sampling.CoverageConfig{}, req, err
		}
		// PilotSample silently returns the whole dataset when n exceeds
		// it; served requests get a 400 instead, so the normalized
		// request echoed in the response never records a pilot size the
		// study didn't actually use.
		if req.PilotSize > len(pilot) {
			return sampling.CoverageConfig{}, req,
				fmt.Errorf("pilot_size %d exceeds the %s dataset (%d measured nodes)", req.PilotSize, req.System, len(pilot))
		}
		if req.Population == 0 {
			req.Population = spec.TotalNodes
		}
		// Preset populations resolve after the guard switch, so re-check
		// the cap against the resolved value.
		if req.Population > maxPopulation {
			return sampling.CoverageConfig{}, req,
				fmt.Errorf("population outside [2, %d]", maxPopulation)
		}
	}

	cfg := sampling.CoverageConfig{
		Pilot:       pilot,
		Population:  req.Population,
		SampleSizes: req.SampleSizes,
		Levels:      req.Levels,
		Replicates:  req.Replicates,
		Seed:        req.Seed,
		Chunks:      64,
		UseZ:        req.UseZ,
	}
	if err := cfg.Validate(); err != nil {
		return sampling.CoverageConfig{}, req, err
	}
	return cfg, req, nil
}

// coverageKey is the cache identity of a study: the provenance pair
// (fingerprint, seed) — the fingerprint digests every result-shaping
// field including the pilot data — plus the human-readable envelope for
// debuggability.
func coverageKey(req CoverageRequest, cfg sampling.CoverageConfig) string {
	sys := req.System
	if len(req.PilotData) > 0 {
		sys = "custom"
	}
	return fmt.Sprintf("coverage|%s|pop=%d|reps=%d|seed=%d|z=%t|fp=%s",
		sys, cfg.Population, cfg.Replicates, cfg.Seed, cfg.UseZ, fingerprintString(cfg.Fingerprint()))
}

// handleCoverage runs (or serves from cache) a Figure 3 coverage study.
// Identical configurations coalesce onto one in-flight study and every
// response body is byte-identical, hit or miss.
func (s *Server) handleCoverage(w http.ResponseWriter, r *http.Request) {
	var req CoverageRequest
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, codeBadJSON, err.Error())
		return
	}
	cfg, norm, err := s.coverageConfig(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, codeInvalidPlan, err.Error())
		return
	}
	s.serveCached(w, r, coverageKey(norm, cfg), "coverage", func(ctx context.Context) ([]byte, bool, error) {
		return s.computeCoverage(ctx, norm, cfg)
	})
}

// serveCached answers a study request from the result cache: the body
// is computed once per key, X-Cache says how this request was served,
// and a failed or abandoned flight maps onto the API's error codes.
func (s *Server) serveCached(w http.ResponseWriter, r *http.Request, key, study string, compute func(context.Context) ([]byte, bool, error)) {
	body, status, err := s.cache.Do(r.Context(), s.base, key, compute)
	w.Header().Set("X-Cache", string(status))
	switch {
	case err == nil:
		writeBody(w, http.StatusOK, body)
	case errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusGatewayTimeout, codeTimeout, study+" study did not finish within the request budget")
	case errors.Is(err, context.Canceled):
		writeError(w, http.StatusServiceUnavailable, codeUnavailable, study+" study canceled")
	default:
		writeError(w, http.StatusInternalServerError, codeInternal, err.Error())
	}
}

// computeCoverage executes one coalesced study: run (on the worker
// fleet when one is configured, in-process otherwise), marshal once
// (the cached bytes every caller receives), and record a manifest-v3
// run record carrying the same seed/fingerprint provenance a CLI run
// would. The returned bool is the cacheable flag for memo.Cache.Do: a
// degraded-mode answer (fleet unreachable, computed locally) serves its
// waiters but is not stored, so the Degraded marker disappears as soon
// as the fleet can answer again.
func (s *Server) computeCoverage(ctx context.Context, norm CoverageRequest, cfg sampling.CoverageConfig) ([]byte, bool, error) {
	sp, ctx := obs.StartSpanCtx(ctx, "server", "coverage_compute")
	defer sp.End()
	if s.coverageGate != nil {
		if err := s.coverageGate(ctx); err != nil {
			return nil, false, err
		}
	}
	start := time.Now()
	var (
		points   []sampling.CoveragePoint
		degraded bool
		err      error
	)
	if s.dist != nil {
		points, degraded, err = s.dist.Coverage(ctx, cfg)
	} else {
		points, err = sampling.CoverageStudyCtx(ctx, cfg)
	}
	if err != nil {
		return nil, false, err
	}
	hStudy.Observe(time.Since(start).Seconds())

	resp := CoverageResponse{
		Request:     norm,
		Seed:        cfg.Seed,
		Fingerprint: fingerprintString(cfg.Fingerprint()),
		Points:      make([]CoveragePointJSON, 0, len(points)),
		Degraded:    degraded,
	}
	for _, p := range points {
		resp.Points = append(resp.Points, CoveragePointJSON{
			SampleSize:   p.SampleSize,
			Level:        p.Level,
			Coverage:     p.Coverage,
			MeanRelWidth: p.MeanRelWidth,
			Replicates:   p.Replicates,
		})
	}
	body, err := json.Marshal(resp)
	if err != nil {
		return nil, false, err
	}
	s.writeCoverageManifest(ctx, norm, cfg, start)
	return body, !degraded, nil
}

// writeCoverageManifest records one computed study as a manifest-v3 run
// record in Config.ManifestDir. Failures are logged, not returned: the
// study result is valid either way, and an unwritable manifest dir must
// not take the endpoint down.
func (s *Server) writeCoverageManifest(ctx context.Context, norm CoverageRequest, cfg sampling.CoverageConfig, start time.Time) {
	if s.cfg.ManifestDir == "" {
		return
	}
	config := map[string]any{
		"system":       norm.System,
		"pilot_nodes":  len(cfg.Pilot),
		"population":   cfg.Population,
		"sample_sizes": cfg.SampleSizes,
		"levels":       cfg.Levels,
		"replicates":   cfg.Replicates,
		"seed":         cfg.Seed,
		"use_z":        cfg.UseZ,
		"fingerprint":  fingerprintString(cfg.Fingerprint()),
	}
	if len(norm.PilotData) > 0 {
		config["system"] = "custom"
	}
	// The manifest records which request trace computed this study — the
	// trace ID goes in provenance, never in the cached response body,
	// which must stay byte-identical across hits.
	if tid, ok := obs.TraceIDFromContext(ctx); ok {
		config["trace_id"] = tid.String()
	}
	m := obs.NewManifest("nodevard/coverage", nil, config, start, nil)
	path := filepath.Join(s.cfg.ManifestDir,
		fmt.Sprintf("coverage-%d-%s.json", cfg.Seed, fingerprintString(cfg.Fingerprint())))
	if err := os.MkdirAll(s.cfg.ManifestDir, 0o755); err != nil {
		s.log.Error("coverage manifest dir unwritable", "dir", s.cfg.ManifestDir, "err", err)
		return
	}
	f, err := os.Create(path)
	if err != nil {
		s.log.Error("coverage manifest unwritable", "path", path, "err", err)
		return
	}
	if err := m.WriteJSON(f); err == nil {
		err = f.Close()
		if err != nil {
			s.log.Error("coverage manifest close failed", "path", path, "err", err)
		}
	} else {
		f.Close()
		s.log.Error("coverage manifest write failed", "path", path, "err", err)
	}
	s.log.Debug("coverage manifest written", "path", path)
}
