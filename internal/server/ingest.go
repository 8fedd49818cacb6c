package server

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"nodevar/internal/fleet"
	"nodevar/internal/sampling"
	"nodevar/internal/stats"
)

// liveSource stamps every fleet response so downstream consumers can
// tell live streaming answers from the static preset-dataset endpoints.
const liveSource = "live-ingest"

// IngestSample is one node observation in an ingest batch.
type IngestSample struct {
	Node  string  `json:"node"`
	Seq   uint64  `json:"seq"`
	Watts float64 `json:"watts"`
}

// IngestRequest is the POST /v1/ingest body: one batch of per-node
// samples for one named fleet. Batches are idempotent per (node, seq):
// retrying a batch never double-counts.
type IngestRequest struct {
	Fleet   string         `json:"fleet"`
	Samples []IngestSample `json:"samples"`
}

// IngestResponse reports what the batch did and the fleet's totals.
type IngestResponse struct {
	Fleet      string `json:"fleet"`
	Accepted   int    `json:"accepted"`
	Duplicates int    `json:"duplicates"`
	Nodes      int    `json:"nodes"`
	Samples    uint64 `json:"samples"`
}

// IntervalJSON mirrors stats.Interval with stable JSON names.
type IntervalJSON struct {
	Center     float64 `json:"center"`
	HalfWidth  float64 `json:"half_width"`
	Lo         float64 `json:"lo"`
	Hi         float64 `json:"hi"`
	Confidence float64 `json:"confidence"`
}

func intervalJSON(ci *stats.Interval) *IntervalJSON {
	if ci == nil {
		return nil
	}
	return &IntervalJSON{
		Center:     ci.Center,
		HalfWidth:  ci.HalfWidth,
		Lo:         ci.Lo(),
		Hi:         ci.Hi(),
		Confidence: ci.Confidence,
	}
}

// WindowJSON is the rolling-window view inside a fleet stats response.
type WindowJSON struct {
	SpanSeconds float64            `json:"span_seconds"`
	Samples     int                `json:"samples"`
	Mean        float64            `json:"mean"`
	StdDev      float64            `json:"stddev"`
	CI          *IntervalJSON      `json:"ci,omitempty"`
	Quantiles   map[string]float64 `json:"quantiles"`
}

// FleetStatsResponse is GET /v1/fleet/{id}/stats: cumulative and
// windowed moments, CI and quantiles from the live stream.
type FleetStatsResponse struct {
	Fleet      string             `json:"fleet"`
	Source     string             `json:"source"`
	Nodes      int                `json:"nodes"`
	Samples    uint64             `json:"samples"`
	Duplicates uint64             `json:"duplicates"`
	Mean       float64            `json:"mean"`
	StdDev     float64            `json:"stddev"`
	CV         float64            `json:"cv"`
	Min        float64            `json:"min"`
	Max        float64            `json:"max"`
	CI         *IntervalJSON      `json:"ci,omitempty"`
	Quantiles  map[string]float64 `json:"quantiles"`
	Window     *WindowJSON        `json:"window,omitempty"`
	LastIngest time.Time          `json:"last_ingest"`
}

// GridEntry is one accuracy row of the live Table-5-style grid.
type GridEntry struct {
	Accuracy float64 `json:"accuracy"`
	Nodes    int     `json:"nodes"`
}

// FleetSampleSizeResponse is GET /v1/fleet/{id}/samplesize: the paper's
// two-phase recommendation computed from the live stream instead of a
// static pilot dataset. Recommended is Equation 5 at the requested
// accuracy; Grid sweeps the paper's Table 5 accuracies at the live CV.
type FleetSampleSizeResponse struct {
	Fleet            string      `json:"fleet"`
	Source           string      `json:"source"`
	Nodes            int         `json:"nodes"`
	Samples          uint64      `json:"samples"`
	Mean             float64     `json:"mean"`
	StdDev           float64     `json:"stddev"`
	CV               float64     `json:"cv"`
	Confidence       float64     `json:"confidence"`
	Accuracy         float64     `json:"accuracy"`
	Population       int         `json:"population"`
	Recommended      int         `json:"recommended"`
	AchievedAccuracy float64     `json:"achieved_accuracy"`
	Grid             []GridEntry `json:"grid"`
}

// OutlierJSON is one flagged node in an outliers response.
type OutlierJSON struct {
	Node    string  `json:"node"`
	Samples int     `json:"samples"`
	Mean    float64 `json:"mean"`
	StdDev  float64 `json:"stddev"`
	Last    float64 `json:"last"`
	Z       float64 `json:"z"`
}

// FleetOutliersResponse is GET /v1/fleet/{id}/outliers: nodes whose mean
// power deviates from the fleet's distribution of node means, in the
// spirit of the paper's Figure 4 outlier case study.
type FleetOutliersResponse struct {
	Fleet       string        `json:"fleet"`
	Source      string        `json:"source"`
	Nodes       int           `json:"nodes"`
	Threshold   float64       `json:"threshold"`
	MeanOfMeans float64       `json:"mean_of_means"`
	StdOfMeans  float64       `json:"std_of_means"`
	Degraded    bool          `json:"degraded,omitempty"`
	Note        string        `json:"note,omitempty"`
	Outliers    []OutlierJSON `json:"outliers"`
}

// validateIngest turns a decoded request into a fleet batch, enforcing
// the ingestMaxBatch cap on top of fleet-level validation. This is the
// single choke point the ingest fuzz target drives: any request it
// accepts must be safe to apply.
func validateIngest(req *IngestRequest) ([]fleet.Sample, error) {
	if err := fleet.ValidName(req.Fleet); err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	if len(req.Samples) > ingestMaxBatch {
		return nil, fmt.Errorf("batch of %d exceeds the %d-sample limit", len(req.Samples), ingestMaxBatch)
	}
	samples := make([]fleet.Sample, len(req.Samples))
	for i, s := range req.Samples {
		samples[i] = fleet.Sample{Node: s.Node, Seq: s.Seq, Watts: s.Watts}
	}
	if err := fleet.ValidateBatch(samples); err != nil {
		return nil, err
	}
	return samples, nil
}

// handleIngest applies one sample batch. Validation happens before any
// state changes, so a 4xx guarantees the fleet is untouched.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	var req IngestRequest
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, codeBadJSON, err.Error())
		return
	}
	samples, err := validateIngest(&req)
	if err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, err.Error())
		return
	}
	res, err := s.fleets.Ingest(req.Fleet, samples)
	if err != nil {
		if errors.Is(err, fleet.ErrFleetFull) {
			writeError(w, http.StatusConflict, codeFleetFull, err.Error())
			return
		}
		writeError(w, http.StatusBadRequest, codeBadRequest, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, IngestResponse{
		Fleet:      req.Fleet,
		Accepted:   res.Accepted,
		Duplicates: res.Duplicates,
		Nodes:      res.Nodes,
		Samples:    res.Samples,
	})
}

// fleetByID resolves the {id} path segment to a live fleet, writing the
// appropriate 4xx and returning nil when it cannot.
func (s *Server) fleetByID(w http.ResponseWriter, r *http.Request) *fleet.Fleet {
	id := r.PathValue("id")
	if err := fleet.ValidName(id); err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, err.Error())
		return nil
	}
	f := s.fleets.Get(id)
	if f == nil {
		writeError(w, http.StatusNotFound, codeNotFound, "unknown fleet "+strconv.Quote(id))
		return nil
	}
	return f
}

// floatParam parses an optional float query parameter.
func floatParam(r *http.Request, name string, def float64) (float64, error) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return def, nil
	}
	v, err := strconv.ParseFloat(raw, 64)
	if err != nil {
		return 0, fmt.Errorf("%s query parameter must be a number", name)
	}
	return v, nil
}

// intParam parses an optional integer query parameter.
func intParam(r *http.Request, name string, def int) (int, error) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return def, nil
	}
	v, err := strconv.Atoi(raw)
	if err != nil {
		return 0, fmt.Errorf("%s query parameter must be an integer", name)
	}
	return v, nil
}

// handleFleetStats serves a consistent snapshot of one fleet.
func (s *Server) handleFleetStats(w http.ResponseWriter, r *http.Request) {
	f := s.fleetByID(w, r)
	if f == nil {
		return
	}
	confidence, err := floatParam(r, "confidence", 0.95)
	if err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, err.Error())
		return
	}
	if !(confidence > 0 && confidence < 1) {
		writeError(w, http.StatusBadRequest, codeBadRequest, "confidence outside (0, 1)")
		return
	}
	st := f.Snapshot(confidence)
	resp := FleetStatsResponse{
		Fleet:      st.Fleet,
		Source:     liveSource,
		Nodes:      st.Nodes,
		Samples:    st.Samples,
		Duplicates: st.Duplicates,
		Mean:       st.Mean,
		StdDev:     st.StdDev,
		CV:         st.CV,
		Min:        st.Min,
		Max:        st.Max,
		CI:         intervalJSON(st.CI),
		Quantiles:  st.Quantiles,
		LastIngest: st.LastIngest,
	}
	if st.Window != nil {
		resp.Window = &WindowJSON{
			SpanSeconds: st.Window.Span.Seconds(),
			Samples:     st.Window.Samples,
			Mean:        st.Window.Mean,
			StdDev:      st.Window.StdDev,
			CI:          intervalJSON(st.Window.CI),
			Quantiles:   st.Window.Quantiles,
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// gridAccuracies are the paper's Table 5 accuracy targets, swept at the
// fleet's live CV in every samplesize response.
var gridAccuracies = []float64{0.005, 0.01, 0.015, 0.02}

// handleFleetSampleSize computes the paper's two-phase sample-size
// recommendation (Equation 5 + finite population correction) treating
// the live stream as the pilot: CV = live sd / live mean, exactly the
// arithmetic sampling.TwoPhase applies to a static pilot slice.
func (s *Server) handleFleetSampleSize(w http.ResponseWriter, r *http.Request) {
	f := s.fleetByID(w, r)
	if f == nil {
		return
	}
	confidence, err := floatParam(r, "confidence", 0.95)
	if err == nil && !(confidence > 0 && confidence < 1) {
		err = errors.New("confidence outside (0, 1)")
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, err.Error())
		return
	}
	accuracy, err := floatParam(r, "accuracy", 0.01)
	if err == nil && accuracy <= 0 {
		err = errors.New("accuracy must be positive")
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, err.Error())
		return
	}
	nodes, samples, mean, sd := f.PlanInputs()
	population, err := intParam(r, "population", nodes)
	if err == nil && population < 0 {
		err = errors.New("population must be non-negative")
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, err.Error())
		return
	}
	if samples < 2 {
		writeError(w, http.StatusConflict, codeInsufficientData,
			"sample-size planning needs at least 2 samples; fleet has "+strconv.FormatUint(samples, 10))
		return
	}
	if sd == 0 {
		writeError(w, http.StatusConflict, codeInsufficientData,
			"fleet has zero power variance so far; CV undefined")
		return
	}
	plan := sampling.Plan{
		Confidence: confidence,
		Accuracy:   accuracy,
		CV:         sd / mean,
		Population: population,
	}
	rec, err := plan.RequiredSampleSize()
	if err != nil {
		writeError(w, http.StatusBadRequest, codeInvalidPlan, err.Error())
		return
	}
	achieved, err := plan.ExpectedAccuracy(rec)
	if err != nil {
		writeError(w, http.StatusInternalServerError, codeInternal, err.Error())
		return
	}
	resp := FleetSampleSizeResponse{
		Fleet:            f.ID(),
		Source:           liveSource,
		Nodes:            nodes,
		Samples:          samples,
		Mean:             mean,
		StdDev:           sd,
		CV:               plan.CV,
		Confidence:       confidence,
		Accuracy:         accuracy,
		Population:       population,
		Recommended:      rec,
		AchievedAccuracy: achieved,
		Grid:             make([]GridEntry, 0, len(gridAccuracies)),
	}
	for _, a := range gridAccuracies {
		p := plan
		p.Accuracy = a
		n, err := p.RequiredSampleSize()
		if err != nil {
			continue // unreachable: only Accuracy changed and a > 0
		}
		resp.Grid = append(resp.Grid, GridEntry{Accuracy: a, Nodes: n})
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleFleetOutliers flags nodes deviating from the fleet's node-mean
// distribution by at least z standard deviations.
func (s *Server) handleFleetOutliers(w http.ResponseWriter, r *http.Request) {
	f := s.fleetByID(w, r)
	if f == nil {
		return
	}
	z, err := floatParam(r, "z", 3)
	if err == nil && z <= 0 {
		err = errors.New("z must be positive")
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, err.Error())
		return
	}
	rep := f.Outliers(z)
	resp := FleetOutliersResponse{
		Fleet:       rep.Fleet,
		Source:      liveSource,
		Nodes:       rep.Nodes,
		Threshold:   rep.Threshold,
		MeanOfMeans: rep.MeanOfMeans,
		StdOfMeans:  rep.StdOfMeans,
		Degraded:    rep.Degraded,
		Note:        rep.Note,
		Outliers:    make([]OutlierJSON, 0, len(rep.Outliers)),
	}
	for _, o := range rep.Outliers {
		resp.Outliers = append(resp.Outliers, OutlierJSON{
			Node:    o.Node,
			Samples: o.Samples,
			Mean:    o.Mean,
			StdDev:  o.StdDev,
			Last:    o.Last,
			Z:       o.Z,
		})
	}
	writeJSON(w, http.StatusOK, resp)
}
