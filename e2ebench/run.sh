#!/usr/bin/env bash
# Builds nodevard and the benchmark program from the checkout's sources,
# then runs one workload. Usage, from the repository root:
#
#   bash e2ebench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Every build artifact, cache and temporary file stays under
# .bench_build/ in the repository root.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/nodevard" || ! -f "$root/e2ebench/go.mod" ]]; then
	echo "e2ebench: run from the repository root (go.mod, cmd/nodevard and e2ebench/ are required)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off CGO_ENABLED=0 GOPROXY=off

go build -o "$out/bin/nodevard" ./cmd/nodevard
(cd "$root/e2ebench" && go build -o "$out/bin/e2ebench" .)
exec "$out/bin/e2ebench" -nodevard "$out/bin/nodevard" -out "$out" "$@"
