package sampling

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"nodevar/internal/checkpoint"
	"nodevar/internal/obs"
	"nodevar/internal/parallel"
	"nodevar/internal/rng"
	"nodevar/internal/stats"
)

// Bootstrap metrics: replicate throughput is the headline number (the
// paper ran 100000 replicates per point), chunk seconds expose
// stragglers in the deterministic parallel decomposition. studies counts
// replicate loops, however many variants each scores; replicates counts
// drawn replicates, once per shared draw.
var (
	mBootStudies    = obs.NewCounter("sampling.bootstrap.studies")
	mBootReplicates = obs.NewCounter("sampling.bootstrap.replicates")
	mBootResumed    = obs.NewCounter("sampling.bootstrap.chunks_resumed")
	gBootRate       = obs.NewGauge("sampling.bootstrap.replicates_per_sec")
	hBootChunk      = obs.NewHistogram("sampling.bootstrap.chunk_seconds",
		[]float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5})
)

// CoverageCheckpointKind stamps coverage-study checkpoints; bump if the
// chunk decomposition, the per-replicate RNG stream, or the meaning of
// the accumulators ever changes. v2 was the count-based replicate loop;
// v3 draws its multinomial with power-of-two splits instead of k/2 ones.
// Each changed the streams, so a stale checkpoint must fail fast with
// checkpoint.ErrMismatch rather than resume into a different stream.
// Transports that carry envelopes between processes (internal/dist
// workers stream them to the frontend) check it too.
const CoverageCheckpointKind = "sampling/coverage-study/v3"

// CoverageConfig describes a Figure-3 style bootstrap calibration study.
type CoverageConfig struct {
	// Pilot is the observed per-node power dataset (e.g. the 516-node LRZ
	// pilot sample).
	Pilot []float64
	// Population is the full machine size N to simulate (e.g. 9216).
	Population int
	// SampleSizes are the subset sizes n to evaluate.
	SampleSizes []int
	// Levels are the nominal confidence levels, e.g. 0.80, 0.95, 0.99.
	Levels []float64
	// Replicates is the number of simulated machines per (n, level)
	// point; the paper used 100000.
	Replicates int
	// Seed fixes the experiment's randomness.
	Seed uint64
	// Chunks controls the deterministic parallel decomposition (default
	// 64). Results are bit-identical for a fixed (Seed, Chunks) pair
	// regardless of GOMAXPROCS.
	Chunks int
	// UseZ replaces the exact t critical values of Equation 1 with the
	// normal-quantile approximation of Equation 2, quantifying the
	// paper's small-n under-coverage caveat.
	UseZ bool

	// CheckpointEvery is the OnCheckpoint cadence in completed chunks
	// (default 8). A final flush also runs on completion and on
	// cancellation.
	CheckpointEvery int
	// ResumeData, when non-empty, is a checkpoint envelope (the bytes an
	// earlier run's OnCheckpoint received, e.g. read back from a file or
	// a progress frame streamed from a dying worker) to resume from: only
	// the chunks it lacks are executed, and the final output is
	// bit-identical to an uninterrupted run. It is verified against the
	// study's kind, seed and a fingerprint of every result-shaping field
	// above; an envelope from a different configuration fails with
	// checkpoint.ErrMismatch.
	ResumeData []byte
	// OnCheckpoint, if set, receives the encoded checkpoint envelope at
	// every save cadence and at the final flush. It is the study's only
	// progress sink: the commands persist the bytes to their -checkpoint
	// file, workers stream them to a remote supervisor. A returned error
	// fails the study once its chunks are done ("sampling: flushing
	// checkpoint: ..."). It runs under the study's internal lock: keep it
	// fast.
	OnCheckpoint func(envelope []byte) error
	// OnChunk, if set, is called after each chunk of the current run is
	// recorded, with the total number of completed chunks (including
	// resumed ones) and the total chunk count. It runs under the study's
	// internal lock: keep it fast and do not call back into the study.
	// Test harnesses use it to cancel at exact points.
	OnChunk func(done, total int)
}

// Validate checks the configuration.
func (c CoverageConfig) Validate() error {
	switch {
	case len(c.Pilot) < 2:
		return errors.New("sampling: coverage study needs a pilot of at least 2 nodes")
	case c.Population < 2:
		return errors.New("sampling: population must be at least 2")
	case len(c.SampleSizes) == 0:
		return errors.New("sampling: no sample sizes given")
	case len(c.Levels) == 0:
		return errors.New("sampling: no confidence levels given")
	case c.Replicates < 1:
		return errors.New("sampling: replicates must be positive")
	}
	for _, n := range c.SampleSizes {
		if n < 2 || n > c.Population {
			return fmt.Errorf("sampling: sample size %d outside [2, %d]", n, c.Population)
		}
	}
	for _, lv := range c.Levels {
		if !(lv > 0 && lv < 1) {
			return fmt.Errorf("sampling: confidence level %v outside (0, 1)", lv)
		}
	}
	return nil
}

// Fingerprint digests every field that shapes the study's output (not
// the runtime-only checkpoint knobs, and not the seed, which is stamped
// separately), so a checkpoint can only resume the exact study that
// wrote it. The serving layer reuses it as the provenance key for
// cached results, so a served study and a CLI run of the same
// configuration carry the same (seed, fingerprint) identity.
func (c CoverageConfig) Fingerprint() uint64 {
	f := checkpoint.NewFingerprint()
	f.Int(len(c.Pilot)).Float64(c.Pilot...)
	f.Int(c.Population, c.Replicates, c.Chunks)
	f.Int(len(c.SampleSizes)).Int(c.SampleSizes...)
	f.Int(len(c.Levels)).Float64(c.Levels...)
	f.Bool(c.UseZ)
	return f.Sum()
}

// CoveragePoint is the simulated coverage of one (n, level) pair.
type CoveragePoint struct {
	SampleSize int
	Level      float64
	// Coverage is the fraction of replicates whose interval contained the
	// simulated machine's true mean.
	Coverage float64
	// MeanRelWidth is the average relative half-width of the intervals,
	// a measure of how tight the estimates are.
	MeanRelWidth float64
	Replicates   int
}

// Miscalibration returns |Coverage - Level|.
func (p CoveragePoint) Miscalibration() float64 {
	d := p.Coverage - p.Level
	if d < 0 {
		d = -d
	}
	return d
}

// chunkResult is one chunk's complete contribution: hit counts and
// relative-width partial sums, flat-indexed [vi][ni][li]. It is what
// the checkpoint persists — chunks are the atomic unit of progress, so a
// checkpoint never holds a torn chunk.
type chunkResult struct {
	Ci     int       `json:"ci"`
	Lo     int       `json:"lo"`
	Hi     int       `json:"hi"`
	Hits   []int64   `json:"hits"`
	Widths []float64 `json:"widths"`
}

// coverageProgress is the checkpoint payload.
type coverageProgress struct {
	Chunks int           `json:"chunks"`
	Done   []chunkResult `json:"done"`
}

// coverScratch is one chunk worker's working set for the count-based
// replicate loop: the multinomial cell counts for the unsampled rest of
// the machine and the pilot indices of the subset prefix. Pooled across
// chunks so the steady-state replicate loop performs no heap allocation.
type coverScratch struct {
	counts []int
	picks  []int
}

var coverScratchPool = sync.Pool{New: func() any { return new(coverScratch) }}

// CoverageStudy runs the paper's four-step bootstrap procedure
// (Section 4.2) for every configured sample size and level:
//
//  1. simulate a complete machine of Population nodes by resampling the
//     pilot with replacement,
//  2. draw a subset of n nodes without replacement,
//  3. form the t-based interval of Equation 1,
//  4. check whether it covers the simulated machine's true mean.
//
// The machine is never materialized: the replicate loop draws it in
// count form at O(pilot + max(SampleSizes)) per replicate, with no
// Population-sized buffers, distributed identically to the materialized
// formulation (DESIGN.md §7 derives the equivalence).
//
// Replicates are distributed over deterministic RNG chunks and run in
// parallel; results are bit-identical for a fixed (Seed, Chunks) pair
// regardless of GOMAXPROCS or scheduling.
func CoverageStudy(cfg CoverageConfig) ([]CoveragePoint, error) {
	return CoverageStudyCtx(context.Background(), cfg)
}

// CoverageStudyCtx is CoverageStudy with cooperative cancellation and
// checkpoint/resume. Cancellation is observed at chunk boundaries: a
// canceled study finishes its in-flight chunks, flushes a final
// checkpoint (when configured), and returns ctx.Err() together with
// points aggregated over the replicates that did complete (their
// Replicates field records how many). Because chunks own disjoint
// replicate ranges with independently derived RNG streams, resuming from
// the checkpoint and running only the missing chunks yields output
// bit-identical to an uninterrupted run.
func CoverageStudyCtx(ctx context.Context, cfg CoverageConfig) ([]CoveragePoint, error) {
	points, err := coverageVariants(ctx, cfg, []variant{{pilot: cfg.Pilot, useZ: cfg.UseZ}})
	if points == nil {
		return nil, err
	}
	return points[0], err
}

// variant is one estimator scored against a shared draw: a pilot and a
// critical-value rule. coverageVariants fills in the rest on its own
// copy: the pilot centred on its mean, and the critical value of every
// (n, level).
type variant struct {
	pilot  []float64
	useZ   bool
	cpilot []float64
	mean   float64
	crit   []float64 // [ni][li]
}

// coverageVariants is the one coverage replicate loop. A resampled
// machine is Population iid uniform pilot picks, so its histogram over
// the pilot values is a multinomial draw and its true mean the
// count-weighted pilot mean. Subsets ride on exchangeability: the values
// at any n distinct machine positions are n iid pilot picks. So each
// replicate draws once — the n_max picks every subset size is a prefix
// of, then multinomial counts for the other Population-n_max nodes — and
// scores every variant against that draw in the operation order of a
// batch of one: points[i] is bit-identical to CoverageStudyCtx with
// variant i's Pilot and UseZ. The draw depends on len(Pilot), so the
// variants must share it. Cells are laid out [vi][ni][li]; a batch of
// one keeps the single study's checkpoint payload and fingerprint, a
// larger batch fingerprints the sequence of its variants' fingerprints.
func coverageVariants(ctx context.Context, cfg CoverageConfig, vs []variant) ([][]CoveragePoint, error) {
	if len(vs) == 0 {
		return nil, errors.New("sampling: coverage study needs at least one variant")
	}
	vs = append([]variant(nil), vs...) // filled in below; the caller's stay as given
	nPilot := len(vs[0].pilot)
	batchFP := checkpoint.NewFingerprint()
	var fp uint64
	for i := range vs {
		v := &vs[i]
		c := cfg
		c.Pilot, c.UseZ = v.pilot, v.useZ
		if err := c.Validate(); err != nil {
			return nil, err
		}
		if len(v.pilot) != nPilot {
			return nil, fmt.Errorf("sampling: variant %d pilot has %d nodes, not %d: a shared draw needs one pilot length", i, len(v.pilot), nPilot)
		}
		fp = c.Fingerprint()
		batchFP.Int(int(fp))
		// Pilot values are centered once: the subset and true-mean sums
		// then run over deviations, which keeps the count-weighted
		// variance free of catastrophic cancellation.
		sum := 0.0
		for _, x := range v.pilot {
			sum += x
		}
		v.mean, v.cpilot = sum/float64(nPilot), make([]float64, nPilot)
		for k, x := range v.pilot {
			v.cpilot[k] = x - v.mean
		}
		for _, n := range cfg.SampleSizes {
			for _, lv := range cfg.Levels {
				cv := stats.ZQuantile(1 - (1-lv)/2)
				if !v.useZ {
					cv = stats.TQuantile(n-1, 1-(1-lv)/2)
				}
				v.crit = append(v.crit, cv)
			}
		}
	}
	if len(vs) > 1 {
		fp = batchFP.Sum()
	}
	mBootStudies.Inc()
	// Context-propagated span: inside a traced request this nests under
	// the request's trace; standalone it falls back to the process tracer.
	sp, ctx := obs.StartSpanCtx(ctx, "phase", "coverage_study")
	if sp.Active() {
		sp.Attr("replicates", strconv.Itoa(cfg.Replicates))
		sp.Attr("population", strconv.Itoa(cfg.Population))
		sp.Attr("variants", strconv.Itoa(len(vs)))
	}
	defer sp.End()
	tStudy := time.Now()
	chunks := cfg.Chunks
	if chunks <= 0 {
		chunks = 64
	}
	saveEvery := cfg.CheckpointEvery
	if saveEvery <= 0 {
		saveEvery = 8
	}
	nSizes, nLevels := len(cfg.SampleSizes), len(cfg.Levels)
	stride := nSizes * nLevels
	nCells := len(vs) * stride

	// The deterministic decomposition: chunk ci always covers ranges[ci]
	// and always consumes the ci-th sequential split of the root stream,
	// no matter which subset of chunks this process executes. That
	// invariance is the whole resume story.
	ranges := parallel.SplitRange(cfg.Replicates, chunks)
	streams := parallel.ChunkStreams(rng.New(cfg.Seed), len(ranges))

	results := make([]*chunkResult, len(ranges))
	if len(cfg.ResumeData) > 0 {
		var prog coverageProgress
		err := checkpoint.Decode(cfg.ResumeData, CoverageCheckpointKind, cfg.Seed, fp, &prog)
		switch {
		case err != nil:
			return nil, err
		case prog.Chunks != len(ranges):
			return nil, fmt.Errorf("%w: checkpoint has %d chunks, study has %d",
				checkpoint.ErrMismatch, prog.Chunks, len(ranges))
		default:
			for _, cr := range prog.Done {
				cr := cr
				if cr.Ci < 0 || cr.Ci >= len(ranges) ||
					ranges[cr.Ci] != (parallel.Range{Lo: cr.Lo, Hi: cr.Hi}) ||
					len(cr.Hits) != nCells || len(cr.Widths) != nCells {
					return nil, fmt.Errorf("%w: chunk %d does not match the study decomposition",
						checkpoint.ErrCorrupt, cr.Ci)
				}
				results[cr.Ci] = &cr
			}
			mBootResumed.Add(int64(len(prog.Done)))
		}
	}

	// Sample sizes are processed in ascending order inside a replicate so
	// each size extends the previous one's value prefix; results land at
	// the caller's original index.
	order := make([]int, nSizes)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return cfg.SampleSizes[order[a]] < cfg.SampleSizes[order[b]]
	})
	nmax := cfg.SampleSizes[order[nSizes-1]]
	var (
		mu        sync.Mutex
		doneCount int
		sinceSave int
		saveErr   error
	)
	for _, cr := range results {
		if cr != nil {
			doneCount++
		}
	}
	snapshot := func() coverageProgress {
		prog := coverageProgress{Chunks: len(ranges)}
		for _, cr := range results {
			if cr != nil {
				prog.Done = append(prog.Done, *cr)
			}
		}
		return prog
	}
	// save flushes progress under mu: the envelope is encoded once and
	// handed to OnCheckpoint. The first failure is kept and fails the
	// study after its chunks are done.
	save := func() {
		sinceSave = 0
		if cfg.OnCheckpoint == nil {
			return
		}
		env, err := checkpoint.Encode(CoverageCheckpointKind, cfg.Seed, fp, snapshot())
		if err == nil {
			err = cfg.OnCheckpoint(env)
		}
		if err != nil && saveErr == nil {
			saveErr = err
		}
	}

	// Execute only the chunks the checkpoint did not already cover.
	var todoRanges []parallel.Range
	var todoCi []int
	for ci := range ranges {
		if results[ci] == nil {
			todoRanges = append(todoRanges, ranges[ci])
			todoCi = append(todoCi, ci)
		}
	}
	var executed atomic.Int64
	runErr := parallel.ForRangesCtx(ctx, todoRanges, func(ti int, r parallel.Range) {
		ci := todoCi[ti]
		csp, _ := obs.StartSpanCtx(ctx, "chunk", "coverage_chunk")
		if csp.Active() {
			csp.Attr("chunk", strconv.Itoa(ci))
			csp.Attr("replicates", strconv.Itoa(r.Hi-r.Lo))
		}
		tChunk := time.Now()
		stream := streams[ci]
		sc := coverScratchPool.Get().(*coverScratch)
		if cap(sc.counts) < nPilot {
			sc.counts = make([]int, nPilot)
		}
		if cap(sc.picks) < nmax {
			sc.picks = make([]int, nmax)
		}
		counts := sc.counts[:nPilot]
		picks := sc.picks[:nmax]
		localHits := make([]int64, nCells)
		localWidth := make([]float64, nCells)
		rest := cfg.Population - nmax
		for rep := r.Lo; rep < r.Hi; rep++ {
			// Steps 1-2, count form, drawn once for every variant. The
			// n_max machine positions every subset will touch are drawn
			// first, as iid pilot picks (the subsets are prefixes of this
			// sequence); the remaining Population-n_max nodes exist only as
			// a multinomial count vector, whose dot with the centered pilot
			// completes the simulated machine's true mean.
			for i := range picks {
				picks[i] = stream.Intn(nPilot)
			}
			stream.MultinomialEqual(rest, counts)
			for vi := range vs {
				s := &vs[vi]
				prefixSum := 0.0
				for _, k := range picks {
					prefixSum += s.cpilot[k]
				}
				restSum := 0.0
				for k, c := range counts {
					restSum += float64(c) * s.cpilot[k]
				}
				trueMean := s.mean + (prefixSum+restSum)/float64(cfg.Population)
				// Steps 3-4 per size (ascending, so each size extends the
				// previous prefix's running sums) and per level: interval
				// hit and the level's own relative half-width (wider levels
				// have wider intervals, so widths are tracked per level).
				hits, widths := localHits[vi*stride:], localWidth[vi*stride:]
				sum, sumsq := 0.0, 0.0
				drawn := 0
				for _, ni := range order {
					n := cfg.SampleSizes[ni]
					for ; drawn < n; drawn++ {
						v := s.cpilot[picks[drawn]]
						sum += v
						sumsq += v * v
					}
					fn := float64(n)
					mean := s.mean + sum/fn
					variance := (sumsq - sum*sum/fn) / (fn - 1)
					if variance < 0 {
						variance = 0
					}
					se := math.Sqrt(variance / fn)
					for li, cv := range s.crit[ni*nLevels : (ni+1)*nLevels] {
						half := cv * se
						if mean-half <= trueMean && trueMean <= mean+half {
							hits[ni*nLevels+li]++
						}
						if mean != 0 {
							widths[ni*nLevels+li] += half / math.Abs(mean)
						}
					}
				}
			}
		}
		coverScratchPool.Put(sc)
		mu.Lock()
		results[ci] = &chunkResult{Ci: ci, Lo: r.Lo, Hi: r.Hi, Hits: localHits, Widths: localWidth}
		doneCount++
		sinceSave++
		if sinceSave >= saveEvery {
			save()
		}
		if cfg.OnChunk != nil {
			cfg.OnChunk(doneCount, len(ranges))
		}
		mu.Unlock()
		hBootChunk.Observe(time.Since(tChunk).Seconds())
		mBootReplicates.Add(int64(r.Hi - r.Lo))
		executed.Add(int64(r.Hi - r.Lo))
		csp.End()
	})

	mu.Lock()
	if sinceSave > 0 {
		// Final flush: on completion the checkpoint captures the whole
		// study; on cancellation it captures every chunk that finished.
		save()
	}
	flushErr := saveErr
	mu.Unlock()
	if runErr != nil && !errors.Is(runErr, context.Canceled) && !errors.Is(runErr, context.DeadlineExceeded) {
		return nil, runErr
	}
	if flushErr != nil {
		return nil, fmt.Errorf("sampling: flushing checkpoint: %w", flushErr)
	}
	if elapsed := time.Since(tStudy).Seconds(); elapsed > 0 && executed.Load() > 0 {
		gBootRate.Set(float64(executed.Load()) / elapsed)
	}

	// Reduce in chunk order (== ascending Lo, since SplitRange emits
	// ordered ranges) for a scheduling-independent floating-point sum.
	hits := make([]int64, nCells)
	widthSums := make([]float64, nCells)
	doneReps := 0
	for _, cr := range results {
		if cr == nil {
			continue
		}
		doneReps += cr.Hi - cr.Lo
		for i := range hits {
			hits[i] += cr.Hits[i]
			widthSums[i] += cr.Widths[i]
		}
	}
	if doneReps == 0 {
		return nil, runErr
	}

	points := make([][]CoveragePoint, len(vs))
	for vi := range vs {
		points[vi] = make([]CoveragePoint, 0, stride)
		for ni, n := range cfg.SampleSizes {
			for li, lv := range cfg.Levels {
				i := vi*stride + ni*nLevels + li
				points[vi] = append(points[vi], CoveragePoint{
					SampleSize:   n,
					Level:        lv,
					Coverage:     float64(hits[i]) / float64(doneReps),
					MeanRelWidth: widthSums[i] / float64(doneReps),
					Replicates:   doneReps,
				})
			}
		}
	}
	return points, runErr
}
