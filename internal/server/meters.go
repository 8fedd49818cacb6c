package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strings"
	"time"

	"nodevar/internal/core"
	"nodevar/internal/methodology"
	"nodevar/internal/obs"
	"nodevar/internal/systems"
)

// This file serves the meter-model distortion study: GET /v1/meters
// lists the metering-architecture presets, POST /v1/distortion runs the
// Level 1/2/3 + Table-5 comparison from internal/methodology against a
// simulated preset system. A distortion study simulates per-node power
// traces for the whole (capped) cluster, so like /v1/coverage it goes
// through the coalescing result cache: one simulation per unique
// configuration, byte-identical responses for every caller.

// MeterPresetJSON is one catalog entry of GET /v1/meters.
type MeterPresetJSON struct {
	Key          string `json:"key"`
	Architecture string `json:"architecture"`
	Description  string `json:"description"`
}

// MetersResponse lists the metering-architecture presets.
type MetersResponse struct {
	Meters []MeterPresetJSON `json:"meters"`
}

// DistortionRequest configures a meter-model distortion study. All
// fields are optional: the zero value compares every non-reference
// preset on a 128-node Colosse-like cluster with the paper's seed.
// Entropy < 1 additionally wraps the system workload in the
// input-entropy modifier; 1 (the default) runs it unmodified.
type DistortionRequest struct {
	System    string   `json:"system,omitempty"`
	Meters    []string `json:"meters,omitempty"`
	Nodes     int      `json:"nodes,omitempty"`
	PilotSize int      `json:"pilot_size,omitempty"`
	Entropy   *float64 `json:"entropy,omitempty"`
	Seed      uint64   `json:"seed,omitempty"`
}

// DistortionLevelJSON mirrors methodology.LevelDistortion.
type DistortionLevelJSON struct {
	Level            int     `json:"level"`
	SystemPowerWatts float64 `json:"system_power_w"`
	ErrVsTruth       float64 `json:"err_vs_truth"`
	ShiftVsReference float64 `json:"shift_vs_reference"`
}

// DistortionModelJSON mirrors methodology.ModelDistortion.
type DistortionModelJSON struct {
	Name            string                `json:"name"`
	Architecture    string                `json:"architecture"`
	Levels          []DistortionLevelJSON `json:"levels"`
	MeasuredCV      float64               `json:"measured_cv"`
	SampleSize      int                   `json:"sample_size"`
	SampleSizeDelta int                   `json:"sample_size_delta"`
}

// DistortionResponse is the study result plus the normalized request
// that produced it.
type DistortionResponse struct {
	Request      DistortionRequest     `json:"request"`
	TrueAvgWatts float64               `json:"true_avg_w"`
	Confidence   float64               `json:"confidence"`
	Accuracy     float64               `json:"accuracy"`
	PilotNodes   int                   `json:"pilot_nodes"`
	Reference    DistortionModelJSON   `json:"reference"`
	Models       []DistortionModelJSON `json:"models"`
}

// handleMeters lists the preset catalog. The catalog is compiled in, so
// this marshals fresh on every request without touching the cache.
func (s *Server) handleMeters(w http.ResponseWriter, r *http.Request) {
	resp := MetersResponse{}
	for _, p := range systems.MeterPresets() {
		resp.Meters = append(resp.Meters, MeterPresetJSON{
			Key:          p.Key,
			Architecture: p.Model.ModelName(),
			Description:  p.Description,
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

// distortionConfig normalizes and validates a request. The returned
// request has every default applied, so it seeds the cache key and the
// response echo.
func (s *Server) distortionConfig(req DistortionRequest) (DistortionRequest, error) {
	if req.System == "" {
		req.System = "colosse"
	}
	if req.Seed == 0 {
		req.Seed = 2015
	}
	if req.Nodes == 0 {
		req.Nodes = 128
	}
	if req.PilotSize == 0 {
		req.PilotSize = 48
	}
	if req.Entropy == nil {
		one := 1.0
		req.Entropy = &one
	}
	if _, err := core.DistortionSystem(req.System); err != nil {
		return req, err
	}
	switch {
	case req.Nodes < 2 || req.Nodes > maxDistortionNodes:
		return req, fmt.Errorf("nodes outside [2, %d]", maxDistortionNodes)
	case req.PilotSize < 2 || req.PilotSize > req.Nodes:
		return req, fmt.Errorf("pilot_size outside [2, nodes=%d]", req.Nodes)
	case !(*req.Entropy >= 0 && *req.Entropy <= 1):
		return req, errors.New("entropy outside [0, 1]")
	}
	if len(req.Meters) == 0 {
		for _, p := range systems.MeterPresets() {
			if p.Key != "reference" {
				req.Meters = append(req.Meters, p.Key)
			}
		}
	}
	if len(req.Meters) > len(systems.MeterPresets()) {
		return req, errors.New("more meters than the catalog holds")
	}
	seen := map[string]bool{}
	for _, key := range req.Meters {
		if _, err := systems.MeterByKey(key); err != nil {
			return req, err
		}
		if seen[key] {
			return req, fmt.Errorf("duplicate meter %q", key)
		}
		seen[key] = true
	}
	return req, nil
}

// distortionKey is a study's cache identity: every result-shaping field
// of the normalized request.
func distortionKey(req DistortionRequest) string {
	return fmt.Sprintf("distortion|%s|nodes=%d|pilot=%d|entropy=%s|seed=%d|meters=%s",
		req.System, req.Nodes, req.PilotSize,
		// %g via FormatFloat-compatible formatting keeps 0.30 and 0.3
		// identical keys.
		formatEntropy(*req.Entropy), req.Seed, strings.Join(req.Meters, "+"))
}

func formatEntropy(e float64) string {
	if e == math.Trunc(e) {
		return fmt.Sprintf("%d", int(e))
	}
	return fmt.Sprintf("%g", e)
}

// handleDistortion runs (or serves from cache) one distortion study.
func (s *Server) handleDistortion(w http.ResponseWriter, r *http.Request) {
	var req DistortionRequest
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, codeBadJSON, err.Error())
		return
	}
	norm, err := s.distortionConfig(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, codeInvalidPlan, err.Error())
		return
	}
	s.serveCached(w, r, distortionKey(norm), "distortion", func(ctx context.Context) ([]byte, bool, error) {
		return s.computeDistortion(ctx, norm)
	})
}

// computeDistortion executes one coalesced study: simulate the target
// cluster, compare the requested meter models, marshal once.
func (s *Server) computeDistortion(ctx context.Context, norm DistortionRequest) ([]byte, bool, error) {
	sp, _ := obs.StartSpanCtx(ctx, "server", "distortion_compute")
	defer sp.End()
	start := time.Now()

	target, err := core.DistortionTarget(norm.System, norm.Nodes, *norm.Entropy, norm.Seed)
	if err != nil {
		return nil, false, err
	}
	if err := ctx.Err(); err != nil {
		// The cluster simulation is the expensive step; honor a caller
		// that gave up during it before starting the comparison.
		return nil, false, err
	}
	models := make([]methodology.NamedModel, 0, len(norm.Meters))
	for _, key := range norm.Meters {
		p, err := systems.MeterByKey(key)
		if err != nil {
			return nil, false, err
		}
		models = append(models, methodology.NamedModel{Name: p.Key, Model: p.Model})
	}
	rep, err := methodology.CompareMeters(target, models, methodology.DistortionConfig{
		PilotNodes: norm.PilotSize,
		Seed:       norm.Seed,
	})
	if err != nil {
		return nil, false, err
	}
	hStudy.Observe(time.Since(start).Seconds())

	resp := DistortionResponse{
		Request:      norm,
		TrueAvgWatts: float64(rep.TrueAvg),
		Confidence:   rep.Confidence,
		Accuracy:     rep.Accuracy,
		PilotNodes:   rep.PilotNodes,
		Reference:    distortionModelJSON(rep.Reference),
	}
	for _, md := range rep.Models {
		resp.Models = append(resp.Models, distortionModelJSON(md))
	}
	body, err := json.Marshal(resp)
	if err != nil {
		return nil, false, err
	}
	return body, true, nil
}

func distortionModelJSON(md methodology.ModelDistortion) DistortionModelJSON {
	out := DistortionModelJSON{
		Name:            md.Name,
		Architecture:    md.Architecture,
		MeasuredCV:      md.MeasuredCV,
		SampleSize:      md.SampleSize,
		SampleSizeDelta: md.SampleSizeDelta,
	}
	for _, ld := range md.Levels {
		out.Levels = append(out.Levels, DistortionLevelJSON{
			Level:            int(ld.Level),
			SystemPowerWatts: float64(ld.SystemPower),
			ErrVsTruth:       ld.ErrVsTruth,
			ShiftVsReference: ld.ShiftVsReference,
		})
	}
	return out
}
