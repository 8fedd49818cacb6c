// Command nodevard serves the paper's sampling methodology as a
// long-lived HTTP JSON API: sample-size planning (/v1/samplesize),
// expected-accuracy queries (/v1/accuracy), the Table 5 grid
// (/v1/table5), the Level-1 versus revised subset rules (/v1/rules) and
// the Figure 3 bootstrap coverage study (/v1/coverage), and live
// streaming fleet ingestion (/v1/ingest plus the /v1/fleet/{id}/stats,
// /samplesize and /outliers views), with coalesced result caching, 429
// load shedding and per-request timeouts.
//
// nodevard also scales out: `-role=worker` turns the process into a
// stateless coverage compute worker speaking the internal/dist job
// protocol, and `-workers` pointed at a fleet of those turns the API
// server into a distributed frontend that consistent-hashes each study
// onto the fleet, streams checkpointed progress back, fails over to a
// survivor when a worker dies mid-study (resuming byte-identically from
// the last streamed checkpoint), and degrades to in-process compute —
// flagged, never an outage — when no workers are live.
//
// Usage:
//
//	nodevard                              # listen on :8080
//	nodevard -addr 127.0.0.1:0            # ephemeral port (printed on stdout)
//	nodevard -max-concurrent 128 -request-timeout 2m
//	nodevard -manifest-dir ./manifests    # one run record per coverage study
//	nodevard -role=worker -addr :9090     # coverage compute worker
//	nodevard -workers http://h1:9090,http://h2:9090   # frontend over a fleet
//
// The first SIGINT/SIGTERM starts a graceful drain: the listener closes
// immediately (new requests are refused), in-flight requests get
// -drain-timeout to finish, and the process exits 130 with an
// "interrupted" run manifest, matching the repo-wide signal convention;
// a second signal exits immediately.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"nodevar/internal/cli"
	"nodevar/internal/dist"
	"nodevar/internal/server"
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		addr         = flag.String("addr", ":8080", "listen address (host:0 picks an ephemeral port)")
		maxConc      = flag.Int("max-concurrent", 64, "in-flight /v1/ request cap; excess requests are shed with 429")
		reqTimeout   = flag.Duration("request-timeout", 60*time.Second, "per-request budget; 0 disables")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "grace for in-flight requests after a shutdown signal")
		manifestDir  = flag.String("manifest-dir", "", "write one manifest-v3 run record per computed coverage study here")
		traceRing    = flag.Int("trace-ring", 256, "recent request traces retained for GET /v1/trace/{id}; 0 disables request tracing")
		accessLogs   = flag.Bool("access-log", true, "emit one structured log line per API request")

		role          = flag.String("role", "api", `process role: "api" serves the JSON API, "worker" serves the distributed coverage compute tier`)
		workers       = flag.String("workers", "", "comma-separated worker base URLs; when set, /v1/coverage studies run on the fleet with checkpointed failover (api role only)")
		probeInterval = flag.Duration("probe-interval", time.Second, "worker health-probe cadence and initial reconnect backoff (frontend)")
		distCkEvery   = flag.Int("dist-checkpoint-every", 4, "streamed-progress cadence in completed chunks requested of workers (frontend)")
		chunkDelay    = flag.Duration("worker-chunk-delay", 0, "sleep after each completed chunk; chaos/scaling harness knob, leave 0 in production (worker role)")

		obsFlags  = cli.RegisterObsFlags()
		execFlags = cli.RegisterExecFlags()
	)
	flag.Parse()
	if *role != "api" && *role != "worker" {
		cli.Fatal(fmt.Errorf("unknown -role %q (want api or worker)", *role))
	}

	run, err := obsFlags.Start("nodevard")
	if err != nil {
		cli.Fatal(err)
	}
	ctx, stop := run.Context(execFlags)
	defer stop()
	run.SetConfig("role", *role)

	if *role == "worker" {
		run.SetConfig("addr", *addr)
		run.SetConfig("worker_chunk_delay", chunkDelay.String())
		return runWorker(run, ctx, *addr, *drainTimeout, dist.WorkerConfig{
			ChunkDelay: *chunkDelay,
			Log:        run.Log,
		})
	}

	run.SetConfig("addr", *addr)
	run.SetConfig("max_concurrent", *maxConc)
	run.SetConfig("request_timeout", reqTimeout.String())
	run.SetConfig("trace_ring", *traceRing)

	// The server's lifecycle context outlives the signal context: drain
	// first (in-flight coverage studies finish and get cached), cancel
	// whatever is left only if the grace period runs out.
	baseCtx, baseCancel := context.WithCancel(context.Background())
	defer baseCancel()
	cfg := server.Config{
		MaxConcurrent:  *maxConc,
		RequestTimeout: *reqTimeout,
		ManifestDir:    *manifestDir,
		BaseContext:    baseCtx,
		Log:            run.Log,
		TraceCapacity:  *traceRing,
		DisableTracing: *traceRing <= 0,
	}
	if *accessLogs {
		// Access logs share the run logger, so -log-format json yields
		// machine-parseable JSON lines with trace ID and cache outcome.
		cfg.AccessLog = run.Log
	}
	if *workers != "" {
		fleet := strings.Split(*workers, ",")
		for i := range fleet {
			fleet[i] = strings.TrimSpace(fleet[i])
		}
		fe, err := dist.NewFrontend(dist.Config{
			Workers:         fleet,
			ProbeInterval:   *probeInterval,
			CheckpointEvery: *distCkEvery,
			Log:             run.Log,
		})
		if err != nil {
			return run.Close(err)
		}
		// The probe loop lives on the server lifecycle context, so it keeps
		// watching the fleet through a drain (in-flight studies may still
		// need a failover target) and stops with everything else.
		fe.Start(baseCtx)
		cfg.Dist = fe
		run.SetConfig("workers", fleet)
		run.Log.Info("distributed coverage enabled", "workers", len(fleet))
	}
	srv := server.New(cfg)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return run.Close(err)
	}
	// Stdout so scripts (and the integration test) can discover an
	// ephemeral port.
	fmt.Printf("nodevard listening on %s\n", ln.Addr())
	run.Log.Info("nodevard listening", "addr", ln.Addr().String())

	hs := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		// The listener failed outright; nothing to drain.
		baseCancel()
		return run.Close(err)
	case <-ctx.Done():
	}

	run.Log.Info("draining", "grace", drainTimeout.String())
	srv.BeginDrain() // readiness flips to draining before the listener closes
	sctx, scancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer scancel()
	if derr := hs.Shutdown(sctx); derr != nil {
		run.Log.Warn("drain incomplete; closing remaining connections", "err", derr)
		baseCancel() // stop abandoned coverage studies at their next chunk
		hs.Close()
	}
	if serr := <-serveErr; serr != nil && !errors.Is(serr, http.ErrServerClosed) {
		run.Log.Error("serve loop error", "err", serr)
	}
	return run.Close(ctx.Err())
}

// runWorker serves the distributed coverage compute tier: the
// internal/dist job protocol plus /metrics and the health probe. Same
// signal convention as the API role — first signal drains, exit 130.
func runWorker(run *cli.Run, ctx context.Context, addr string, drainTimeout time.Duration, wcfg dist.WorkerConfig) int {
	w := dist.NewWorker(wcfg)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return run.Close(err)
	}
	// Same stdout discovery line as the API role, so harnesses parse one
	// format regardless of role.
	fmt.Printf("nodevard listening on %s\n", ln.Addr())
	run.Log.Info("nodevard worker listening", "addr", ln.Addr().String())

	hs := &http.Server{Handler: w.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		return run.Close(err)
	case <-ctx.Done():
	}

	run.Log.Info("worker draining", "grace", drainTimeout.String())
	sctx, scancel := context.WithTimeout(context.Background(), drainTimeout)
	defer scancel()
	if derr := hs.Shutdown(sctx); derr != nil {
		run.Log.Warn("worker drain incomplete; closing remaining connections", "err", derr)
		hs.Close()
	}
	if serr := <-serveErr; serr != nil && !errors.Is(serr, http.ErrServerClosed) {
		run.Log.Error("worker serve loop error", "err", serr)
	}
	return run.Close(ctx.Err())
}
