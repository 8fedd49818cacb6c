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
// stragglers in the deterministic parallel decomposition.
var (
	mBootStudies    = obs.NewCounter("sampling.bootstrap.studies")
	mBootReplicates = obs.NewCounter("sampling.bootstrap.replicates")
	mBootResumed    = obs.NewCounter("sampling.bootstrap.chunks_resumed")
	gBootRate       = obs.NewGauge("sampling.bootstrap.replicates_per_sec")
	hBootChunk      = obs.NewHistogram("sampling.bootstrap.chunk_seconds",
		[]float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5})
)

// coverageKind stamps coverage-study checkpoints; bump if the chunk
// decomposition, the per-replicate RNG stream, or the meaning of the
// accumulators ever changes. v2 is the count-based replicate loop: the
// streams differ from v1, so a stale v1 checkpoint must fail fast with
// checkpoint.ErrMismatch rather than resume into a different stream.
const coverageKind = "sampling/coverage-study/v2"

// CoverageCheckpointKind is the checkpoint kind stamp of coverage-study
// progress, exported so transports that carry checkpoint envelopes
// between processes (internal/dist workers stream them to the frontend)
// can verify an envelope belongs to this study formulation before
// accepting it.
const CoverageCheckpointKind = coverageKind

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
// relative-width partial sums, flat-indexed [ni*nLevels+li]. It is what
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
// the machine and the subset value prefix. Pooled across chunks so the
// steady-state replicate loop performs no heap allocation.
type coverScratch struct {
	counts []int
	vals   []float64
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
// The machine is never materialized. A resampled machine is Population
// iid uniform picks from the pilot, so its node-count histogram over the
// len(Pilot) distinct pilot values is a multinomial draw, and the true
// mean is the count-weighted pilot mean — O(pilot) per replicate instead
// of O(Population). The without-replacement subsets ride on
// exchangeability: the values at any n distinct machine positions are
// themselves n iid pilot picks, so one replicate draws the largest
// subset prefix directly (each smaller size is a prefix of it, uniform
// for every size), then draws the remaining Population-n_max nodes in
// count form for the true mean. Per-replicate cost is
// O(pilot + max(SampleSizes)) with no Population-sized buffers, and the
// recorded statistics are distributed identically to the materialized
// formulation (DESIGN.md derives the equivalence).
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
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	mBootStudies.Inc()
	// Context-propagated span: inside a traced request this nests under
	// the request's trace; standalone it falls back to the process tracer.
	sp, ctx := obs.StartSpanCtx(ctx, "phase", "coverage_study")
	if sp.Active() {
		sp.Attr("replicates", strconv.Itoa(cfg.Replicates))
		sp.Attr("population", strconv.Itoa(cfg.Population))
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

	// The deterministic decomposition: chunk ci always covers ranges[ci]
	// and always consumes the ci-th sequential split of the root stream,
	// no matter which subset of chunks this process executes. That
	// invariance is the whole resume story.
	ranges := parallel.SplitRange(cfg.Replicates, chunks)
	streams := parallel.ChunkStreams(rng.New(cfg.Seed), len(ranges))
	fp := cfg.Fingerprint()

	results := make([]*chunkResult, len(ranges))
	if len(cfg.ResumeData) > 0 {
		var prog coverageProgress
		err := checkpoint.Decode(cfg.ResumeData, coverageKind, cfg.Seed, fp, &prog)
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
					len(cr.Hits) != nSizes*nLevels || len(cr.Widths) != nSizes*nLevels {
					return nil, fmt.Errorf("%w: chunk %d does not match the study decomposition",
						checkpoint.ErrCorrupt, cr.Ci)
				}
				results[cr.Ci] = &cr
			}
			mBootResumed.Add(int64(len(prog.Done)))
		}
	}

	// Precompute the critical values for every (n, level) pair.
	crit := make([][]float64, nSizes)
	for ni, n := range cfg.SampleSizes {
		crit[ni] = make([]float64, nLevels)
		for li, lv := range cfg.Levels {
			if cfg.UseZ {
				crit[ni][li] = stats.ZQuantile(1 - (1-lv)/2)
			} else {
				crit[ni][li] = stats.TQuantile(n-1, 1-(1-lv)/2)
			}
		}
	}

	// Sample sizes are processed in ascending order inside a replicate so
	// each size extends the previous one's value prefix; results land at
	// the caller's original index. Pilot values are centered once: the
	// subset and true-mean sums then run over deviations, which keeps the
	// count-weighted variance free of catastrophic cancellation.
	order := make([]int, nSizes)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return cfg.SampleSizes[order[a]] < cfg.SampleSizes[order[b]]
	})
	nmax := cfg.SampleSizes[order[nSizes-1]]
	nPilot := len(cfg.Pilot)
	pilotSum := 0.0
	for _, v := range cfg.Pilot {
		pilotSum += v
	}
	pilotMean := pilotSum / float64(nPilot)
	cpilot := make([]float64, nPilot)
	for k, v := range cfg.Pilot {
		cpilot[k] = v - pilotMean
	}

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
		env, err := checkpoint.Encode(coverageKind, cfg.Seed, fp, snapshot())
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
		if cap(sc.vals) < nmax {
			sc.vals = make([]float64, nmax)
		}
		counts := sc.counts[:nPilot]
		vals := sc.vals[:nmax]
		localHits := make([]int64, nSizes*nLevels)
		localWidth := make([]float64, nSizes*nLevels)
		rest := cfg.Population - nmax
		for rep := r.Lo; rep < r.Hi; rep++ {
			// Steps 1-2, count form. The n_max machine positions every
			// subset will touch are drawn first, as iid pilot picks (the
			// subsets are prefixes of this sequence); the remaining
			// Population-n_max nodes exist only as a multinomial count
			// vector, whose dot with the centered pilot completes the
			// simulated machine's true mean.
			prefixSum := 0.0
			for i := range vals {
				v := cpilot[stream.Intn(nPilot)]
				vals[i] = v
				prefixSum += v
			}
			stream.MultinomialEqual(rest, counts)
			restSum := 0.0
			for k, c := range counts {
				restSum += float64(c) * cpilot[k]
			}
			trueMean := pilotMean + (prefixSum+restSum)/float64(cfg.Population)
			// Steps 3-4 per size (ascending, so each size extends the
			// previous prefix's running sums) and per level: interval hit
			// and the level's own relative half-width (wider levels have
			// wider intervals, so widths are tracked per level).
			sum, sumsq := 0.0, 0.0
			drawn := 0
			for _, ni := range order {
				n := cfg.SampleSizes[ni]
				for ; drawn < n; drawn++ {
					v := vals[drawn]
					sum += v
					sumsq += v * v
				}
				fn := float64(n)
				mean := pilotMean + sum/fn
				variance := (sumsq - sum*sum/fn) / (fn - 1)
				if variance < 0 {
					variance = 0
				}
				se := math.Sqrt(variance / fn)
				for li, cv := range crit[ni] {
					half := cv * se
					if mean-half <= trueMean && trueMean <= mean+half {
						localHits[ni*nLevels+li]++
					}
					if mean != 0 {
						localWidth[ni*nLevels+li] += half / math.Abs(mean)
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
	hits := make([]int64, nSizes*nLevels)
	widthSums := make([]float64, nSizes*nLevels)
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

	points := make([]CoveragePoint, 0, nSizes*nLevels)
	for ni, n := range cfg.SampleSizes {
		for li, lv := range cfg.Levels {
			points = append(points, CoveragePoint{
				SampleSize:   n,
				Level:        lv,
				Coverage:     float64(hits[ni*nLevels+li]) / float64(doneReps),
				MeanRelWidth: widthSums[ni*nLevels+li] / float64(doneReps),
				Replicates:   doneReps,
			})
		}
	}
	return points, runErr
}
