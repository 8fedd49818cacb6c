// Command e2ebench is nodevar's end-to-end benchmark. One invocation
// runs one workload for a fixed time, checks every answer, and prints
// the end-to-end metrics (or, with -trace 1, the per-layer metrics) as
// the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// The workloads (see BENCHMARK.json for why each was chosen):
//
//	repro          in-process, closed loop, 1 client: the full paper pipeline
//	coverage-miss  nodevard, closed loop, 1 client: unique /v1/coverage studies
//	api-mix        nodevard, closed loop, 1 client: cheap endpoints, cache hits, ingest
//	coverage-dist  nodevard -workers + one worker, closed loop, 2 clients;
//	               not in BENCHMARK.json (see README.md), kept for
//	               manual runs
//
// -workload all runs the four in turn. It is normally started through
// run.sh, which builds nodevard and this program from the checkout first.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"time"
)

// result is the benchmark's machine-readable verdict.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runConfig is what every workload receives.
type runConfig struct {
	Workload string
	Seed     uint64
	Duration time.Duration
	Trace    bool
	Nodevard string // path of the nodevard binary
	OutDir   string // build directory; span files are written below it
}

// workloadFunc runs one workload and fills r. Correctness failures are
// counted in r.Failed; a returned error means the run itself broke.
type workloadFunc func(cfg runConfig, r *report) error

var workloads = map[string]workloadFunc{
	"repro":         runRepro,
	"coverage-miss": runCoverageMiss,
	"api-mix":       runAPIMix,
	"coverage-dist": runCoverageDist,
}

// allWorkloads is the order -workload all runs them in, each in a fresh
// process.
var allWorkloads = []string{"repro", "coverage-miss", "api-mix", "coverage-dist"}

func main() {
	if len(os.Args) > 1 && os.Args[1] == calibrateChildArg {
		os.Exit(calibrateChild())
	}
	var cfg runConfig
	flag.StringVar(&cfg.Workload, "workload", "", "workload name, or all")
	flag.Uint64Var(&cfg.Seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 10, "length of the measured closed-loop phase")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer variant")
	flag.StringVar(&cfg.Nodevard, "nodevard", "", "path of the nodevard binary")
	flag.StringVar(&cfg.OutDir, "out", ".bench_build", "directory for span files")
	flag.Parse()
	cfg.Duration = time.Duration(*seconds * float64(time.Second))
	cfg.Trace = *trace == 1

	if cfg.Duration <= 0 || (*trace != 0 && *trace != 1) {
		fatalf("-seconds must be positive and -trace 0 or 1")
	}
	if cfg.Nodevard == "" {
		fatalf("-nodevard is required (the server workloads and every traced run start it)")
	}
	if cfg.Workload == "all" {
		os.Exit(runEveryWorkload(*seconds, *trace, cfg))
	}
	run, ok := workloads[cfg.Workload]
	if !ok {
		fatalf("unknown -workload %q", cfg.Workload)
	}

	r := newReport(cfg)
	r.spinBefore = spinMillis()
	if err := run(cfg, r); err != nil {
		fatalf("%s: %v", cfg.Workload, err)
	}
	r.spinAfter = spinMillis()
	res := r.finish()
	if err := r.writeSpans(); err != nil {
		fatalf("writing spans: %v", err)
	}
	r.printSummary(os.Stdout)
	b, err := json.Marshal(res)
	if err != nil {
		fatalf("encoding result: %v", err)
	}
	fmt.Println(string(b))
	if !res.Correct {
		os.Exit(1)
	}
}

// runEveryWorkload runs each workload in its own process with the same
// settings and fails if any of them does.
func runEveryWorkload(seconds float64, trace int, cfg runConfig) int {
	exe, err := os.Executable()
	if err != nil {
		fatalf("%v", err)
	}
	status := 0
	for _, w := range allWorkloads {
		cmd := exec.Command(exe, "-workload", w, "-seed", strconv.FormatUint(cfg.Seed, 10),
			"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace),
			"-nodevard", cfg.Nodevard, "-out", cfg.OutDir)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "e2ebench: workload %s: %v\n", w, err)
			status = 1
		}
	}
	return status
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "e2ebench: "+format+"\n", args...)
	os.Exit(2)
}

// sortedKeys returns m's keys in order, for deterministic printing.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
