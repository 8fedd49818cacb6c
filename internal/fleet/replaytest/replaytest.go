// Package replaytest is the batch-equivalence harness for the streaming
// fleet subsystem: it replays a deterministic preset dataset through a
// real fleet.Registry sample-by-sample, splitting the stream into
// seeded random batch sizes and re-sending seeded random duplicate
// batches, then checks the streaming answers against the batch
// internal/stats and internal/sampling implementations computed over
// the same values.
//
// The equivalence contract it enforces:
//
//   - fleet and per-node mean and standard deviation are BIT-IDENTICAL
//     to stats.MeanStdDev / a sequential stats.Accumulator pass — not
//     merely close. Both sides are the same sequential Welford
//     recurrence over the same values in the same order, so any batching
//     of the stream must render the same bits;
//   - the confidence interval equals stats.MeanCI exactly;
//   - the live sample-size recommendation equals sampling.TwoPhase over
//     the full value set exactly;
//   - sketch quantiles agree with the batch type-7 stats.Quantile within
//     twice the sketch's relative accuracy (the documented sketch bound
//     plus headroom for the nearest-rank vs interpolated difference);
//   - duplicate batches are pure no-ops, and the observed sample count
//     is exactly the number of distinct samples applied, monotone over
//     the whole replay.
//
// Like resumetest and chaostest, scenarios reproduce from a single
// integer seed, so a CI failure is a one-line repro.
package replaytest

import (
	"fmt"
	"math"
	"time"

	"nodevar/internal/fleet"
	"nodevar/internal/rng"
	"nodevar/internal/sampling"
	"nodevar/internal/stats"
	"nodevar/internal/systems"
)

// Scenario is one replay experiment.
type Scenario struct {
	// Seed drives everything: the dataset, the batch splits, the
	// duplicate re-sends.
	Seed uint64
	// System selects the preset dataset (default "lrz").
	System string
	// Nodes is the fleet's node count (default 100, capped at the
	// dataset size).
	Nodes int
	// Rounds is how many samples each node contributes (default 5).
	Rounds int
	// MaxBatch caps the random batch size (default the node count; the
	// harness additionally caps batches at the node count so a batch
	// never repeats a node).
	MaxBatch int
	// DupRate is the per-batch probability of re-sending that batch
	// verbatim, exercising idempotency (default 0.2).
	DupRate float64
	// Confidence and Accuracy parameterize the CI and sample-size
	// comparisons (defaults 0.95 and 0.01).
	Confidence float64
	Accuracy   float64
	// Population is the extrapolation target for the sample-size
	// comparison (default 10000, the paper's Table 5 machine).
	Population int
}

func (sc Scenario) withDefaults() Scenario {
	if sc.System == "" {
		sc.System = "lrz"
	}
	if sc.Nodes <= 0 {
		sc.Nodes = 100
	}
	if sc.Rounds <= 0 {
		sc.Rounds = 5
	}
	if sc.MaxBatch <= 0 {
		sc.MaxBatch = sc.Nodes
	}
	if sc.DupRate == 0 {
		sc.DupRate = 0.2
	}
	if sc.Confidence == 0 {
		sc.Confidence = 0.95
	}
	if sc.Accuracy == 0 {
		sc.Accuracy = 0.01
	}
	if sc.Population == 0 {
		sc.Population = 10000
	}
	return sc
}

// Outcome summarizes a successful replay.
type Outcome struct {
	// Samples is the number of distinct samples applied; Duplicates is
	// how many re-sent samples the fleet skipped.
	Samples    uint64
	Duplicates uint64
	// Batches is how many ingest calls the replay issued, duplicates
	// included.
	Batches int
	// Recommended is the live sample-size recommendation, equal by
	// construction to the batch two-phase recommendation.
	Recommended int
	// MaxQuantileRelErr is the worst observed sketch-vs-batch relative
	// quantile error (bounded by 2α).
	MaxQuantileRelErr float64
}

// quantileProbes are the probabilities the equivalence check covers —
// the same grid the fleet stats endpoint serves.
var quantileProbes = []float64{0.01, 0.05, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99}

// Run replays one scenario and verifies every equivalence invariant,
// returning a descriptive error on the first violation.
func Run(sc Scenario) (Outcome, error) {
	sc = sc.withDefaults()
	spec, err := systems.ByKey(sc.System)
	if err != nil {
		return Outcome{}, err
	}
	dataset, err := systems.NodeDataset(spec, sc.Seed)
	if err != nil {
		return Outcome{}, err
	}
	nodes := sc.Nodes
	if nodes > len(dataset) {
		nodes = len(dataset)
	}

	// The full stream in arrival order: round r gives node i the dataset
	// value at (r*nodes + i) mod len(dataset), sequence r+1.
	type beat struct {
		node  int
		seq   uint64
		watts float64
	}
	stream := make([]beat, 0, nodes*sc.Rounds)
	values := make([]float64, 0, nodes*sc.Rounds)
	perNode := make([][]float64, nodes)
	for r := 0; r < sc.Rounds; r++ {
		for i := 0; i < nodes; i++ {
			w := dataset[(r*nodes+i)%len(dataset)]
			stream = append(stream, beat{node: i, seq: uint64(r + 1), watts: w})
			values = append(values, w)
			perNode[i] = append(perNode[i], w)
		}
	}

	// Replay through a real registry with a deterministic clock.
	now := time.Date(2026, 8, 8, 0, 0, 0, 0, time.UTC)
	reg := fleet.NewRegistry(4, fleet.Config{
		Window: 24 * time.Hour, // the whole replay fits one window
		Now:    func() time.Time { return now },
	})
	const fleetID = "replay"
	nodeName := func(i int) string { return fmt.Sprintf("node-%04d", i) }

	r := rng.New(sc.Seed)
	maxBatch := sc.MaxBatch
	if maxBatch > nodes {
		maxBatch = nodes // a longer contiguous window would repeat a node
	}
	out := Outcome{}
	var applied uint64
	var wantDup uint64
	send := func(chunk []beat) error {
		batch := make([]fleet.Sample, len(chunk))
		for i, b := range chunk {
			batch[i] = fleet.Sample{Node: nodeName(b.node), Seq: b.seq, Watts: b.watts}
		}
		res, err := reg.Ingest(fleetID, batch)
		if err != nil {
			return fmt.Errorf("ingest: %w", err)
		}
		out.Batches++
		if res.Accepted+res.Duplicates != len(batch) {
			return fmt.Errorf("batch of %d: accepted %d + duplicates %d", len(batch), res.Accepted, res.Duplicates)
		}
		return nil
	}
	for pos := 0; pos < len(stream); {
		n := 1 + r.Intn(maxBatch)
		if pos+n > len(stream) {
			n = len(stream) - pos
		}
		chunk := stream[pos : pos+n]
		if err := send(chunk); err != nil {
			return Outcome{}, err
		}
		applied += uint64(n)
		pos += n
		now = now.Add(137 * time.Millisecond)

		// Idempotency under retries: re-send the same batch, possibly
		// more than once; nothing may change but the duplicate counter.
		for r.Bernoulli(sc.DupRate) {
			if err := send(chunk); err != nil {
				return Outcome{}, fmt.Errorf("duplicate re-send: %w", err)
			}
			wantDup += uint64(n)
		}

		// The observed sample count must track applied samples exactly —
		// monotone, never over- or under-counting.
		st := reg.Get(fleetID).Snapshot(sc.Confidence)
		if st.Samples != applied {
			return Outcome{}, fmt.Errorf("after %d beats: fleet reports %d samples", applied, st.Samples)
		}
	}

	f := reg.Get(fleetID)
	st := f.Snapshot(sc.Confidence)
	out.Samples = st.Samples
	out.Duplicates = st.Duplicates
	if st.Samples != uint64(len(stream)) || st.Duplicates != wantDup {
		return Outcome{}, fmt.Errorf("final counts: %d samples (want %d), %d duplicates (want %d)",
			st.Samples, len(stream), st.Duplicates, wantDup)
	}
	if st.Nodes != nodes {
		return Outcome{}, fmt.Errorf("final node count %d, want %d", st.Nodes, nodes)
	}

	// Fleet moments: bit-identical to the batch pass.
	mean, sd := stats.MeanStdDev(values)
	if math.Float64bits(st.Mean) != math.Float64bits(mean) {
		return Outcome{}, fmt.Errorf("streaming mean %v (%016x) != batch mean %v (%016x)",
			st.Mean, math.Float64bits(st.Mean), mean, math.Float64bits(mean))
	}
	if math.Float64bits(st.StdDev) != math.Float64bits(sd) {
		return Outcome{}, fmt.Errorf("streaming sd %v (%016x) != batch sd %v (%016x)",
			st.StdDev, math.Float64bits(st.StdDev), sd, math.Float64bits(sd))
	}
	if st.Min != stats.Min(values) || st.Max != stats.Max(values) {
		return Outcome{}, fmt.Errorf("streaming extremes [%v, %v] != batch [%v, %v]",
			st.Min, st.Max, stats.Min(values), stats.Max(values))
	}
	ci := stats.MeanCI(values, stats.CIOptions{Confidence: sc.Confidence})
	if st.CI == nil || *st.CI != ci {
		return Outcome{}, fmt.Errorf("streaming CI %+v != batch CI %+v", st.CI, ci)
	}

	// The window spans the whole replay, so the exact-sum windowed view
	// must agree with the batch mean to the carrier's rendering (one
	// correctly-rounded division of exact sums; allow 1 ulp against the
	// Welford path).
	if st.Window == nil || st.Window.Samples != len(stream) {
		return Outcome{}, fmt.Errorf("window %+v does not cover the replay", st.Window)
	}
	if rel := math.Abs(st.Window.Mean-mean) / mean; rel > 1e-12 {
		return Outcome{}, fmt.Errorf("window mean %v vs batch %v (rel %g)", st.Window.Mean, mean, rel)
	}

	// Per-node accumulators: bit-identical to batch Welford per node.
	for i := 0; i < nodes; i++ {
		acc, ok := f.NodeAccumulator(nodeName(i))
		if !ok {
			return Outcome{}, fmt.Errorf("node %d missing after replay", i)
		}
		var want stats.Accumulator
		want.AddSlice(perNode[i])
		if acc.N() != want.N() ||
			math.Float64bits(acc.Mean()) != math.Float64bits(want.Mean()) ||
			math.Float64bits(acc.Variance()) != math.Float64bits(want.Variance()) ||
			acc.Min() != want.Min() || acc.Max() != want.Max() {
			return Outcome{}, fmt.Errorf("node %d: streaming (n=%d μ=%v σ²=%v) != batch (n=%d μ=%v σ²=%v)",
				i, acc.N(), acc.Mean(), acc.Variance(), want.N(), want.Mean(), want.Variance())
		}
	}

	// Quantiles: within twice the sketch's relative accuracy of the
	// batch type-7 estimate.
	sorted := append([]float64(nil), values...)
	for _, q := range quantileProbes {
		want := stats.Quantile(sorted, q)
		got, ok := st.Quantiles[quantileKey(q)]
		if !ok {
			return Outcome{}, fmt.Errorf("snapshot missing quantile %v", q)
		}
		rel := math.Abs(got-want) / want
		if rel > 2*fleet.SketchAlpha {
			return Outcome{}, fmt.Errorf("q=%v: sketch %v vs batch %v (rel %g > %g)",
				q, got, want, rel, 2*fleet.SketchAlpha)
		}
		if rel > out.MaxQuantileRelErr {
			out.MaxQuantileRelErr = rel
		}
	}

	// Live sample-size recommendation: exactly the paper's two-phase
	// procedure over the full value set.
	fNodes, fSamples, fMean, fSD := f.PlanInputs()
	if fNodes != nodes || fSamples != uint64(len(stream)) {
		return Outcome{}, fmt.Errorf("plan inputs (%d nodes, %d samples)", fNodes, fSamples)
	}
	livePlan := sampling.Plan{
		Confidence: sc.Confidence,
		Accuracy:   sc.Accuracy,
		CV:         fSD / fMean,
		Population: sc.Population,
	}
	liveRec, err := livePlan.RequiredSampleSize()
	if err != nil {
		return Outcome{}, fmt.Errorf("live plan: %w", err)
	}
	batchRec, err := sampling.TwoPhase(values, sc.Confidence, sc.Accuracy, sc.Population)
	if err != nil {
		return Outcome{}, fmt.Errorf("batch two-phase: %w", err)
	}
	if liveRec != batchRec {
		return Outcome{}, fmt.Errorf("live recommendation %d != batch two-phase %d", liveRec, batchRec)
	}
	out.Recommended = liveRec
	return out, nil
}

// quantileKey renders a probe probability as its snapshot map key
// ("p01" ... "p99").
func quantileKey(q float64) string {
	return fmt.Sprintf("p%02d", int(math.Round(q*100)))
}
