package main

import (
	"encoding/json"
	"fmt"
	"math"

	"nodevar/internal/sampling"
	"nodevar/internal/server"
	"nodevar/internal/systems"
)

// Every input is a pure function of the workload seed: the server only
// ever sees the generated requests.

// splitmix64 is a bijective 64-bit mixer.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// derive hashes the workload seed with a stream tag and indexes.
func derive(seed uint64, tag string, idx ...int) uint64 {
	h := splitmix64(seed)
	for i := 0; i < len(tag); i++ {
		h = splitmix64(h ^ uint64(tag[i]))
	}
	for _, i := range idx {
		h = splitmix64(h ^ uint64(i))
	}
	return h
}

// Coverage stream tags: the timed miss stream, its warm-up, and the
// api-mix hit set are disjoint seed spaces.
const (
	tagMiss   = "coverage-miss"
	tagWarmup = "coverage-warmup"
	tagHits   = "api-mix-hits"
)

// No record of served traffic exists, so the coverage stream's shape is
// nodevard's own defaults (coverageConfig in internal/server): 2000
// replicates, sample sizes {3, 5, 10, 20}, and lrz, the default system,
// with its default pilot of 516 nodes, which is lrz's whole measured
// dataset. A second preset with a different pilot size varies the
// pilot data and the study cost; tudresden gets the same rule, its
// whole measured dataset of 210 nodes. The 3:1 split is an assumption: the default system is taken
// to be the one asked for most, and an uneven split keeps the latency
// median inside one system's mode instead of in the gap between two.
var coverageSystems = []struct {
	key    string
	pilot  int
	weight int
}{{"lrz", 516, 3}, {"tudresden", 210, 1}}

const coverageReplicates = 2000

var coverageSampleSizes = []int{3, 5, 10, 20}

// coverageRequest is the idx-th request of a coverage stream: a unique
// study seed derived from the workload seed, and a preset fixed by idx,
// so every run of every seed sends the same mix of systems.
func coverageRequest(seed uint64, tag string, idx int) server.CoverageRequest {
	total := 0
	for _, c := range coverageSystems {
		total += c.weight
	}
	pick := idx % total
	sys := coverageSystems[0]
	for _, c := range coverageSystems {
		if pick < c.weight {
			sys = c
			break
		}
		pick -= c.weight
	}
	s := splitmix64(derive(seed, tag, idx)) | 1 // never 0, which the server replaces with its default
	return server.CoverageRequest{
		System:      sys.key,
		PilotSize:   sys.pilot,
		SampleSizes: coverageSampleSizes,
		Replicates:  coverageReplicates,
		Seed:        s,
	}
}

// studyConfig resolves a coverage request the way nodevard does.
func studyConfig(req server.CoverageRequest) (sampling.CoverageConfig, error) {
	spec, err := systems.ByKey(req.System)
	if err != nil {
		return sampling.CoverageConfig{}, err
	}
	pilot, err := systems.PilotSample(spec, req.Seed, req.PilotSize)
	if err != nil {
		return sampling.CoverageConfig{}, err
	}
	return sampling.CoverageConfig{
		Pilot:       pilot,
		Population:  spec.TotalNodes,
		SampleSizes: req.SampleSizes,
		Levels:      []float64{0.80, 0.95, 0.99},
		Replicates:  req.Replicates,
		Seed:        req.Seed,
		Chunks:      64,
	}, nil
}

// expectedCoverageBody computes a coverage request in-process with
// sampling.CoverageStudy and encodes it exactly as nodevard does.
func expectedCoverageBody(req server.CoverageRequest) ([]byte, error) {
	cfg, err := studyConfig(req)
	if err != nil {
		return nil, err
	}
	points, err := sampling.CoverageStudy(cfg)
	if err != nil {
		return nil, err
	}
	norm := req
	norm.Population = cfg.Population
	norm.Levels = cfg.Levels
	resp := server.CoverageResponse{
		Request:     norm,
		Seed:        cfg.Seed,
		Fingerprint: fmt.Sprintf("%016x", cfg.Fingerprint()),
	}
	for _, p := range points {
		resp.Points = append(resp.Points, server.CoveragePointJSON{
			SampleSize: p.SampleSize, Level: p.Level, Coverage: p.Coverage,
			MeanRelWidth: p.MeanRelWidth, Replicates: p.Replicates,
		})
	}
	return encodeBody(resp)
}

// encodeBody is nodevard's wire form of a JSON response.
func encodeBody(v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// api-mix operation kinds, also the SLO endpoint classes.
const (
	kindSampleSize = "samplesize"
	kindRules      = "rules"
	kindHit        = "coverage_hit"
	kindIngest     = "ingest"
	kindFleetRead  = "fleet_read"
	kindCoverage   = "coverage"
)

// No record of served traffic exists, so every api-mix choice below is
// an assumption. The five operation kinds get equal shares, in percent,
// in the order the operation draw tests them: nothing says one is asked
// for more than another.
var apiMix = []struct {
	kind  string
	share uint64
}{{kindSampleSize, 20}, {kindRules, 20}, {kindHit, 20}, {kindIngest, 20}, {kindFleetRead, 20}}

const (
	// Distinct samplesize plans and rules queries: enough that no single
	// body is all the JSON work.
	poolSize = 32
	// Coverage studies in the hit set. It must fit nodevard's 128-entry
	// cache; every study in it is computed at each set-up.
	hitSetSize = 16
	// Each client owns its fleets, so every expected count is exact
	// without coordination; two per client so that a client's reads and
	// writes do not all go to one fleet.
	fleetsPerClient = 2
	// A batch carries one sample from each of half the fleet's nodes, so
	// per-node sequence numbers advance every other batch.
	fleetNodes = 32
	batchSize  = 16
	// One ingest in four re-sends the fleet's previous batch: duplicates
	// are frequent enough to weigh in, and most ingests still apply new
	// samples.
	duplicateEvery = 4
)

// apiOp is one generated api-mix operation with what it must return.
type apiOp struct {
	kind   string
	method string
	path   string
	body   []byte
	want   []byte // exact expected body, when known up front
	hit    int    // hit-set index (coverage hits)
	fleet  int    // fleet index within the client (ingest, fleet reads)
	count  int    // fleet samples accepted before the read (fleet reads)
	accept int    // samples the ingest must accept
	dups   int    // samples the ingest must report as duplicates
}

// apiPools are the fixed request variants of the cheap endpoints with
// their expected bodies, computed from sampling.Plan and the rules
// functions before the timed phase.
type apiPools struct {
	sampleSize [][2][]byte // request, expected response
	rules      [][2]string // path, expected response
	hits       []server.CoverageRequest
}

func newAPIPools(seed uint64) (*apiPools, error) {
	p := &apiPools{}
	for i := 0; i < poolSize; i++ {
		h := derive(seed, "samplesize", i)
		req := server.SampleSizeRequest{
			Confidence: []float64{0.90, 0.95, 0.99}[h%3],
			Accuracy:   []float64{0.005, 0.01, 0.02, 0.05}[(h>>8)%4],
			CV:         0.005 + float64((h>>16)%60)/1000,
			Population: 100 + int((h>>32)%50000),
		}
		plan := sampling.Plan{Confidence: req.Confidence, Accuracy: req.Accuracy, CV: req.CV, Population: req.Population}
		n, err := plan.RequiredSampleSize()
		if err != nil {
			return nil, err
		}
		acc, err := plan.ExpectedAccuracy(n)
		if err != nil {
			return nil, err
		}
		body, _ := json.Marshal(req)
		want, err := encodeBody(server.SampleSizeResponse{Nodes: n, AchievedAccuracy: acc, Plan: req})
		if err != nil {
			return nil, err
		}
		p.sampleSize = append(p.sampleSize, [2][]byte{body, want})

		nodes := 1 + int(derive(seed, "rules", i)%200000)
		want, err = encodeBody(server.RulesResponse{Nodes: nodes, Level1: sampling.Level1Nodes(nodes), Revised: sampling.RevisedRuleNodes(nodes)})
		if err != nil {
			return nil, err
		}
		p.rules = append(p.rules, [2]string{fmt.Sprintf("/v1/rules?nodes=%d", nodes), string(want)})
	}
	for i := 0; i < hitSetSize; i++ {
		p.hits = append(p.hits, coverageRequest(seed, tagHits, i))
	}
	return p, nil
}

// fleetName is client c's f-th fleet.
func fleetName(c, f int) string { return fmt.Sprintf("bench-c%d-f%d", c, f) }

// fleetState tracks what one fleet has accepted, in arrival order.
type fleetState struct {
	values  []float64
	nodes   int
	batches int
	seq     []uint64 // last sequence number sent per node
	last    []byte   // previous batch body, for duplicate re-sends
}

// apiStream generates one client's api-mix operations. Each client
// owns its fleets, so every expected count is known without
// coordination between clients. Marshalling the request and response
// structs here cannot fail (every float is finite), so its errors are
// dropped.
type apiStream struct {
	seed   uint64
	client int
	k      int
	pools  *apiPools
	fleets []*fleetState
}

func newAPIStream(seed uint64, client int, pools *apiPools) *apiStream {
	s := &apiStream{seed: seed, client: client, pools: pools}
	for f := 0; f < fleetsPerClient; f++ {
		s.fleets = append(s.fleets, &fleetState{seq: make([]uint64, fleetNodes)})
	}
	return s
}

// ingest builds fleet f's next fresh batch and applies it to the model.
func (s *apiStream) ingest(f int) apiOp {
	st := s.fleets[f]
	req := server.IngestRequest{Fleet: fleetName(s.client, f)}
	gauss := derive(s.seed, "watts", s.client, f, st.batches)
	for j := 0; j < batchSize; j++ {
		node := (st.batches*batchSize + j) % fleetNodes
		st.seq[node]++
		if st.seq[node] == 1 {
			st.nodes++
		}
		gauss = splitmix64(gauss)
		w := 400 + 25*normal(gauss)
		st.values = append(st.values, w)
		req.Samples = append(req.Samples, server.IngestSample{Node: fmt.Sprintf("n%02d", node), Seq: st.seq[node], Watts: w})
	}
	st.batches++
	body, _ := json.Marshal(req)
	st.last = body
	want, _ := encodeBody(server.IngestResponse{Fleet: req.Fleet, Accepted: batchSize, Nodes: st.nodes, Samples: uint64(len(st.values))})
	return apiOp{kind: kindIngest, method: "POST", path: "/v1/ingest", body: body, want: want, fleet: f, accept: batchSize}
}

// next returns the client's next operation.
func (s *apiStream) next() apiOp {
	h := derive(s.seed, "api-mix", s.client, s.k)
	s.k++
	pick := h % 100
	kind := apiMix[len(apiMix)-1].kind
	for _, m := range apiMix {
		if pick < m.share {
			kind = m.kind
			break
		}
		pick -= m.share
	}
	idx := int((h >> 32) % poolSize)
	f := int((h >> 40) % fleetsPerClient)
	switch kind {
	case kindSampleSize:
		v := s.pools.sampleSize[idx]
		return apiOp{kind: kind, method: "POST", path: "/v1/samplesize", body: v[0], want: v[1]}
	case kindRules:
		v := s.pools.rules[idx]
		return apiOp{kind: kind, method: "GET", path: v[0], want: []byte(v[1])}
	case kindHit:
		req := s.pools.hits[idx%hitSetSize]
		body, _ := json.Marshal(req)
		return apiOp{kind: kind, method: "POST", path: "/v1/coverage", body: body, hit: idx % hitSetSize}
	case kindIngest:
		st := s.fleets[f]
		if (h>>48)%duplicateEvery == 0 && st.last != nil {
			want, _ := encodeBody(server.IngestResponse{Fleet: fleetName(s.client, f), Duplicates: batchSize, Nodes: st.nodes, Samples: uint64(len(st.values))})
			return apiOp{kind: kind, method: "POST", path: "/v1/ingest", body: st.last, want: want, fleet: f, dups: batchSize}
		}
		return s.ingest(f)
	default:
		view := []string{"stats", "samplesize"}[(h>>56)%2]
		return apiOp{kind: kindFleetRead, method: "GET", path: fmt.Sprintf("/v1/fleet/%s/%s", fleetName(s.client, f), view),
			fleet: f, count: len(s.fleets[f].values)}
	}
}

// normal maps a 64-bit hash to a standard normal deviate (Box-Muller
// over its two 32-bit halves).
func normal(h uint64) float64 {
	u1 := (float64(h>>32) + 0.5) / (1 << 32)
	u2 := (float64(h&0xffffffff) + 0.5) / (1 << 32)
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}
