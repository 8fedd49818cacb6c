GO ?= go
FUZZTIME ?= 10s
COVER_FLOOR ?= 80

.PHONY: build test vet fmt-check race check bench repro fuzz cover-check vuln serve obs-serve-check dist-check loc

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Fail when any Go file is not gofmt-formatted, naming the files.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Fuzz every Fuzz* target in the module for FUZZTIME each. The targets
# are found with go test -list, so a new one cannot be left out; go test
# accepts one -fuzz target per invocation, hence the loop.
fuzz:
	@set -e; list=$$($(GO) test -list '^Fuzz' ./...); \
	targets=$$(echo "$$list" | awk '/^Fuzz/ {t[n++] = $$1; next} /^ok/ {for (i = 0; i < n; i++) print $$2 ":" t[i]; n = 0}'); \
	[ -n "$$targets" ] || { echo "fuzz: no Fuzz targets found"; exit 1; }; \
	for pt in $$targets; do \
	  echo "== $${pt#*:} ($${pt%%:*}, $(FUZZTIME))"; \
	  $(GO) test -run='^$$' -fuzz="^$${pt#*:}\$$" -fuzztime=$(FUZZTIME) $${pt%%:*}; \
	done

# Coverage floor for the fault-injection layer and the power core it
# hardens: these packages carry the never-a-silent-wrong-answer
# guarantees, so their tests must stay comprehensive.
cover-check:
	@for pkg in ./internal/faults ./internal/power; do \
	  pct=$$($(GO) test -count=1 -cover $$pkg | awk '{for(i=1;i<=NF;i++) if ($$i ~ /%/) {gsub("%","",$$i); print $$i}}'); \
	  echo "$$pkg coverage: $$pct% (floor $(COVER_FLOOR)%)"; \
	  awk -v p="$$pct" -v f="$(COVER_FLOOR)" 'BEGIN{exit !(p+0 >= f)}' || { echo "FAIL: $$pkg below the $(COVER_FLOOR)% coverage floor"; exit 1; }; \
	done

# Scan the module against the Go vulnerability database. Needs network
# access to fetch the tool and the DB, so it is a CI gate rather than
# part of the offline `check` target.
vuln:
	$(GO) run golang.org/x/vuln/cmd/govulncheck@latest ./...

# The full pre-commit gate: formatting, vet, build, the test suite under
# the race detector, every fuzz target for FUZZTIME (10s), and the
# coverage floor. The suite covers the chaos invariants
# (./internal/faults/chaostest), the SIGINT-then-resume e2e against the
# repro binary (TestReproInterrupt, TestCheckpointFlagsTellTheTruth) and
# a repro -trace-out file checked by obs.ValidateChromeTrace
# (TestCommandLineTools/repro), and the reachability gate
# (./internal/leantest), which fails naming file:line for any
# package-level declaration in a non-test file that no program reaches.
check: fmt-check vet build race fuzz cover-check

bench:
	$(GO) test -run='^$$' -bench=. -benchmem .

# The benchmark-regression gate. bench-baseline records the key benches
# (the ones the count-based bootstrap rewrite is measured by) into
# BENCH_BASELINE; bench-compare re-runs them and fails on a >15% ns/op
# regression against the committed baseline, and additionally locks in
# the rewrite's speedup against the pre-rewrite BENCH_4.json trajectory
# point (>=5x ns/op and >=10x B/op on the two bootstrap-bound benches).
# -count=3 with benchgate's min-merge filters scheduler noise. Both checks
# always run, so a regression cannot hide the floors; the target fails if
# either does.
BENCH_BASELINE ?= BENCH_6.json
BENCH_KEY = Table4$$|Figure3$$|BootstrapReplicates$$|CoverageStudyReplicate$$
BENCH_COUNT ?= 3

.PHONY: bench-baseline bench-compare
bench-baseline:
	$(GO) test -run='^$$' -bench='$(BENCH_KEY)' -benchmem -count=$(BENCH_COUNT) . ./internal/sampling \
	  | $(GO) run ./cmd/benchgate -emit $(BENCH_BASELINE) \
	      -note "key-bench baseline for the count-based bootstrap (PR 6)"

bench-compare:
	$(GO) test -run='^$$' -bench='$(BENCH_KEY)' -benchmem -count=$(BENCH_COUNT) . ./internal/sampling > /tmp/bench-current.txt
	status=0; \
	$(GO) run ./cmd/benchgate -current /tmp/bench-current.txt -baseline $(BENCH_BASELINE) \
	  -max-regress 0.15 -require Table4,Figure3,BootstrapReplicates,CoverageStudy || status=1; \
	$(GO) run ./cmd/benchgate -current /tmp/bench-current.txt -baseline BENCH_4.json \
	  -improve Figure3,BootstrapReplicates -min-speedup 5 -min-memratio 10 || status=1; \
	exit $$status

repro:
	$(GO) run ./cmd/repro -exp all

# Print the non-test Go line count that ROADMAP aim 2 tracks (tracked
# files only, e2ebench/ included).
loc:
	@git ls-files '*.go' | grep -v '_test.go$$' | xargs cat | wc -l

# Run the nodevard HTTP service locally (see README "Serving the
# methodology"). SERVE_ADDR=127.0.0.1:0 picks an ephemeral port.
SERVE_ADDR ?= :8080
serve:
	$(GO) run ./cmd/nodevard -addr $(SERVE_ADDR)

# The distributed-serving gate: the 1-vs-4 worker scaling proof under an
# in-test open-loop study load (>=2x completed studies, zero 5xx). The
# dist package (ring, protocol, worker, frontend, net-fault chaos
# composition) and the two-worker SIGKILL failover suite with
# byte-identity against a single-process reference across four seeds run
# under the race detector in `make check`; the job-envelope decoder fuzz
# target runs in `make fuzz`.
dist-check:
	NODEVAR_DIST_SCALE=1 $(GO) test -count=1 -run TestDistScalingGate .

# The observability gate: the zero-alloc assertions and the
# disabled-path/resolved-vec benchmarks without the race detector — the
# serving hot path must stay allocation-free when tracing is off and
# handles are resolved. The obs and server suites run under the race
# detector in `make check`, where the alloc gates self-skip.
obs-serve-check:
	$(GO) test -count=1 -run 'AllocFree|IsAllocFree' ./internal/obs
	$(GO) test -count=1 -run='^$$' -bench='BenchmarkDisabledSpan$$|BenchmarkDisabledCtxSpan$$|BenchmarkCounterVecResolvedInc$$' -benchtime=100x -benchmem ./internal/obs
