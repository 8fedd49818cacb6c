// Command repro regenerates the paper's tables and figures.
//
// Usage:
//
//	repro -exp all                      # everything, to stdout
//	repro -exp table5                   # one artifact
//	repro -exp figure3 -replicates 100000
//	repro -exp all -out results/        # also write per-table CSV files
//	repro -exp figure3 -checkpoint fig3.ckpt -resume -timeout 30m
//
// -checkpoint keeps the Figure 3 coverage study's progress in a file;
// -resume continues from it (a missing file is a fresh start), and the
// output is byte-identical to an uninterrupted run. The manifest's
// exec.resumed is set only when progress was actually loaded.
//
// SIGINT/SIGTERM cancel the run gracefully: in-flight work stops at the
// next chunk boundary, the checkpoint (if configured) and a manifest
// with status "interrupted" are flushed, and the process exits 130. A
// second signal exits immediately.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"nodevar/internal/cli"
	"nodevar/internal/core"
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		exp        = flag.String("exp", "all", "experiment id or 'all' (ids: "+idList()+")")
		seed       = flag.Uint64("seed", 2015, "random seed")
		samples    = flag.Int("samples", 2000, "trace resolution")
		replicates = flag.Int("replicates", 20000, "Figure 3 bootstrap replicates (paper used 100000)")
		trials     = flag.Int("trials", 200, "repeated measurements in the rules study")
		out        = flag.String("out", "", "directory for CSV output (optional)")
		svg        = flag.String("svg", "", "directory for SVG figure output (optional)")
		md         = flag.String("md", "", "file for Markdown table output (optional)")
		obsFlags   = cli.RegisterObsFlags()
		execFlags  = cli.RegisterExecFlags()
	)
	execFlags.RegisterCheckpoint(flag.CommandLine)
	flag.Parse()
	if err := execFlags.Validate(); err != nil {
		cli.Fatal(err)
	}

	run, err := obsFlags.Start("repro")
	if err != nil {
		cli.Fatal(err)
	}
	ctx, stop := run.Context(execFlags)
	defer stop()
	run.SetConfig("exp", *exp)
	run.SetConfig("seed", *seed)
	run.SetConfig("samples", *samples)
	run.SetConfig("replicates", *replicates)
	run.SetConfig("trials", *trials)
	resume, sink, err := run.Progress(execFlags)
	if err != nil {
		return run.Close(err)
	}

	opts := core.Options{
		Seed:              *seed,
		TraceSamples:      *samples,
		Replicates:        *replicates,
		MeasurementTrials: *trials,
		ResumeData:        resume,
		OnCheckpoint:      sink,
	}

	// Experiments run in parallel (core.RunAllCtx) and render afterwards
	// in stable ID order, so the output is identical to a sequential run.
	// A failing experiment no longer aborts the batch: its siblings still
	// run and render, and the failures are summarized at exit.
	var results []core.Result
	var runErr error
	if *exp == "all" {
		results, runErr = core.RunAllCtx(ctx, opts)
	} else {
		var res core.Result
		res, runErr = core.RunCtx(ctx, core.ID(*exp), opts)
		results = []core.Result{res}
	}
	if runErr != nil {
		var es core.ExperimentErrors
		switch {
		case errors.Is(runErr, context.Canceled) || errors.Is(runErr, context.DeadlineExceeded):
			// Graceful shutdown: skip rendering, flush artifacts, exit via
			// the status-aware path.
			return run.Close(runErr)
		case errors.As(runErr, &es):
			// Render what succeeded below, then exit non-zero.
		default:
			return run.Close(runErr)
		}
	}
	run.Log.Debug("experiments complete", "count", len(results))
	var mdFile *os.File
	if *md != "" {
		f, err := os.Create(*md)
		if err != nil {
			cli.Fatal(fmt.Errorf("creating %s: %v", *md, err))
		}
		defer f.Close()
		mdFile = f
	}
	for _, res := range results {
		if res == nil {
			continue // failed experiment, summarized via runErr
		}
		id := res.ID()
		if err := res.Render(os.Stdout); err != nil {
			cli.Fatal(fmt.Errorf("rendering %s: %v", id, err))
		}
		fmt.Println()
		if *out != "" {
			if err := writeCSVs(*out, res); err != nil {
				cli.Fatal(fmt.Errorf("writing %s: %v", id, err))
			}
		}
		if *svg != "" {
			if err := writeSVGs(*svg, res); err != nil {
				cli.Fatal(fmt.Errorf("writing %s figures: %v", id, err))
			}
		}
		if mdFile != nil {
			fmt.Fprintf(mdFile, "## %s\n\n", res.Title())
			for _, t := range res.Tables() {
				if err := t.WriteMarkdown(mdFile); err != nil {
					cli.Fatal(fmt.Errorf("writing markdown for %s: %v", id, err))
				}
				fmt.Fprintln(mdFile)
			}
		}
	}
	return run.Close(runErr)
}

func writeSVGs(dir string, res core.Result) error {
	figs := res.Figures()
	if len(figs) == 0 {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, fig := range figs {
		f, err := os.Create(filepath.Join(dir, fig.Name+".svg"))
		if err != nil {
			return err
		}
		if err := fig.WriteSVG(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

func idList() string {
	ids := core.IDs()
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = string(id)
	}
	return strings.Join(out, ", ")
}

func writeCSVs(dir string, res core.Result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i, t := range res.Tables() {
		name := fmt.Sprintf("%s_%d.csv", res.ID(), i)
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		if err := t.WriteCSV(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}
