// Package core wires the substrates together into the paper's
// experiments: one constructor per table and figure plus the gaming and
// rules studies. Each experiment returns structured results and can
// render itself as text tables and ASCII figures.
package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"

	"nodevar/internal/obs"
	"nodevar/internal/parallel"
	"nodevar/internal/report"
)

// Pipeline metrics: every experiment execution is counted and timed, so
// a run manifest shows exactly which artifacts a process produced and
// where the wall time went.
var (
	mExperiments = obs.NewCounter("core.experiments_run")
	mRunAll      = obs.NewCounter("core.runall_calls")
	hExperiment  = obs.NewHistogram("core.experiment_seconds",
		[]float64{0.01, 0.05, 0.1, 0.5, 1, 5, 10, 60})
)

// ID names an experiment (a table or figure of the paper).
type ID string

// The reproducible artifacts.
const (
	Table1  ID = "table1"
	Table2  ID = "table2"
	Table3  ID = "table3"
	Table4  ID = "table4"
	Table5  ID = "table5"
	Figure1 ID = "figure1"
	Figure2 ID = "figure2"
	Figure3 ID = "figure3"
	Figure4 ID = "figure4"
	Gaming  ID = "gaming"
	Rules   ID = "rules"
	Meters  ID = "meters"
)

// Options configures experiment execution.
type Options struct {
	// Seed fixes all randomness (default 2015, the paper's year).
	Seed uint64
	// TraceSamples is the resolution of generated traces (default 2000).
	TraceSamples int
	// Replicates is the Figure 3 bootstrap replicate count (default
	// 20000; the paper used 100000).
	Replicates int
	// MeasurementTrials is how many repeated measurements the rules
	// experiment takes per configuration (default 200).
	MeasurementTrials int

	// ResumeData and OnCheckpoint carry the resumable progress of the
	// long experiments (currently the Figure 3 coverage study) as
	// checkpoint envelope bytes; see the sampling.CoverageConfig fields
	// of the same names. Where the bytes are kept is the caller's choice.
	ResumeData   []byte
	OnCheckpoint func(envelope []byte) error
}

func (o Options) fill() Options {
	if o.Seed == 0 {
		o.Seed = 2015
	}
	if o.TraceSamples <= 1 {
		o.TraceSamples = 2000
	}
	if o.Replicates <= 0 {
		o.Replicates = 20000
	}
	if o.MeasurementTrials <= 0 {
		o.MeasurementTrials = 200
	}
	return o
}

// Figure is one renderable vector graphic of an experiment.
type Figure struct {
	// Name is a filesystem-friendly figure name.
	Name string
	// WriteSVG renders the figure as an SVG document.
	WriteSVG func(w io.Writer) error
}

// Result is a completed experiment.
type Result interface {
	// ID identifies the artifact.
	ID() ID
	// Title is the human heading.
	Title() string
	// Render writes the full human-readable reproduction.
	Render(w io.Writer) error
	// Tables returns the machine-readable tables.
	Tables() []*report.Table
	// Figures returns the vector figures (may be empty).
	Figures() []Figure
}

// Runner produces one experiment. Runners observe ctx cooperatively:
// a canceled context makes long-running runners return ctx.Err()
// promptly (after flushing any configured checkpoint) instead of
// running to completion.
type Runner func(context.Context, Options) (Result, error)

// registry maps IDs to runners.
var registry = map[ID]Runner{
	Table1:  runTable1,
	Table2:  runTable2,
	Table3:  runTable3,
	Table4:  runTable4,
	Table5:  runTable5,
	Figure1: runFigure1,
	Figure2: runFigure2,
	Figure3: runFigure3,
	Figure4: runFigure4,
	Gaming:  runGaming,
	Rules:   runRules,
	Meters:  runMeters,
}

// IDs returns every experiment id in a stable order.
func IDs() []ID {
	out := make([]ID, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ErrUnknownExperiment is returned for ids not in the registry.
var ErrUnknownExperiment = errors.New("core: unknown experiment")

// Run executes one experiment. Each execution is traced as one
// "experiment" span (when a tracer is installed) and counted, so
// RunAll's schedule is visible stage by stage in the Chrome trace.
func Run(id ID, opts Options) (Result, error) {
	return RunCtx(context.Background(), id, opts)
}

// RunCtx is Run with cooperative cancellation. A runner panic — whether
// on this goroutine or inside a parallel worker — is recovered and
// returned as an error, so one broken experiment can never take down a
// process that is juggling several.
func RunCtx(ctx context.Context, id ID, opts Options) (res Result, err error) {
	r, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownExperiment, id)
	}
	opts = opts.fill()
	sp := obs.T().Start("experiment", string(id))
	sp.Attr("seed", strconv.FormatUint(opts.Seed, 10))
	t0 := time.Now()
	defer func() {
		if v := recover(); v != nil {
			var pe *parallel.PanicError
			if errors.As(asError(v), &pe) {
				// A worker panic already isolated by the parallel layer and
				// re-raised by a legacy void entry point; keep its stack.
				err = fmt.Errorf("core: %s: %w", id, pe)
			} else {
				err = fmt.Errorf("core: %s: runner panic: %v", id, v)
			}
			res = nil
		}
		hExperiment.Observe(time.Since(t0).Seconds())
		if err != nil {
			sp.Attr("error", err.Error())
		}
		sp.End()
		mExperiments.Inc()
	}()
	res, err = r(ctx, opts)
	return res, err
}

// asError converts a recovered panic value into an error for errors.As
// inspection without losing non-error values.
func asError(v any) error {
	if err, ok := v.(error); ok {
		return err
	}
	return fmt.Errorf("%v", v)
}

// ExperimentError ties a failure to the experiment that produced it.
type ExperimentError struct {
	ID  ID
	Err error
}

func (e *ExperimentError) Error() string { return fmt.Sprintf("%s: %v", e.ID, e.Err) }
func (e *ExperimentError) Unwrap() error { return e.Err }

// ExperimentErrors aggregates per-experiment failures from a batch run:
// every experiment gets its chance to run, and the summary names each
// failure instead of letting the first one hide the rest.
type ExperimentErrors []*ExperimentError

func (es ExperimentErrors) Error() string {
	if len(es) == 1 {
		return fmt.Sprintf("core: 1 experiment failed: %v", es[0])
	}
	var b strings.Builder
	fmt.Fprintf(&b, "core: %d experiments failed:", len(es))
	for _, e := range es {
		fmt.Fprintf(&b, "\n  %v", e)
	}
	return b.String()
}

// Unwrap exposes the individual failures to errors.Is/As.
func (es ExperimentErrors) Unwrap() []error {
	out := make([]error, len(es))
	for i, e := range es {
		out[i] = e
	}
	return out
}

// errors.Is and errors.As reach the wrapped failures through Unwrap.
var (
	_ interface{ Unwrap() error }   = (*ExperimentError)(nil)
	_ interface{ Unwrap() []error } = ExperimentErrors(nil)
)

// RunAll executes every experiment and returns the results in stable ID
// order. Experiments run in parallel: each runner is a pure function of
// its Options (all randomness flows from opts.Seed through per-experiment
// generators), so results — including rendered text — are bit-identical
// to RunAllSequential. Shared work (system-trace calibrations) is
// deduplicated by the systems package's singleflight cache, so the first
// experiment to need a trace fits it and the rest wait for that fit.
func RunAll(opts Options) ([]Result, error) {
	return RunAllCtx(context.Background(), opts)
}

// RunAllCtx is RunAll with cooperative cancellation and full error
// collection. Unlike a fail-fast batch, every experiment runs even when
// siblings fail; the error is then an ExperimentErrors listing each
// failure. On cancellation the returned slice still carries the results
// that completed (others nil) alongside ctx.Err(); experiments that died
// only because the context was canceled are not double-reported.
func RunAllCtx(ctx context.Context, opts Options) ([]Result, error) {
	mRunAll.Inc()
	sp := obs.T().Start("phase", "run_all")
	defer sp.End()
	ids := IDs()
	out := make([]Result, len(ids))
	errs := make([]error, len(ids))
	runErr := parallel.ForDynamicCtx(ctx, len(ids), func(i int) {
		out[i], errs[i] = RunCtx(ctx, ids[i], opts)
	})
	if runErr != nil {
		var pe *parallel.PanicError
		if errors.As(runErr, &pe) {
			// Should be unreachable — RunCtx recovers runner panics — but
			// never swallow a panic if a future runner finds a new way.
			return out, runErr
		}
	}
	var failed ExperimentErrors
	for i, err := range errs {
		if err == nil {
			continue
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			// The cancellation is reported once, via runErr.
			continue
		}
		failed = append(failed, &ExperimentError{ID: ids[i], Err: err})
	}
	if len(failed) > 0 {
		return out, failed
	}
	return out, runErr
}

// RunAllSequential executes every experiment one after another in stable
// ID order. It is the reference implementation RunAll's parallel schedule
// is validated against; prefer RunAll.
func RunAllSequential(opts Options) ([]Result, error) {
	out := make([]Result, 0, len(IDs()))
	for _, id := range IDs() {
		res, err := Run(id, opts)
		if err != nil {
			return nil, fmt.Errorf("core: %s: %w", id, err)
		}
		out = append(out, res)
	}
	return out, nil
}

// baseResult implements the boilerplate of Result.
type baseResult struct {
	id     ID
	title  string
	tables []*report.Table
	// extraRender, when set, appends figure output after the tables.
	extraRender func(w io.Writer) error
	figures     []Figure
}

func (b *baseResult) ID() ID                  { return b.id }
func (b *baseResult) Title() string           { return b.title }
func (b *baseResult) Tables() []*report.Table { return b.tables }
func (b *baseResult) Figures() []Figure       { return b.figures }

// lineFigure adapts a report.LineChart into a Figure.
func lineFigure(name string, chart *report.LineChart) Figure {
	return Figure{
		Name: name,
		WriteSVG: func(w io.Writer) error {
			return chart.WriteSVG(w, report.SVGOptions{})
		},
	}
}

// histFigure adapts a report.HistogramChart into a Figure.
func histFigure(name string, chart *report.HistogramChart) Figure {
	return Figure{
		Name: name,
		WriteSVG: func(w io.Writer) error {
			return chart.WriteSVG(w, report.SVGOptions{})
		},
	}
}
func (b *baseResult) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== %s ==\n\n", b.title); err != nil {
		return err
	}
	for _, t := range b.tables {
		if err := t.WriteText(w); err != nil {
			return err
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	if b.extraRender != nil {
		return b.extraRender(w)
	}
	return nil
}
