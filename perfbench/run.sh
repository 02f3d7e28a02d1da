#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the Go toolchain writes (build cache, module cache, the
# binary, trace spans) stays under .bench_build/ at the checkout root.
# The benchmark module imports the repository's internal packages through
# a replace directive, so without the repository around it the build
# fails and so does this script.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [[ ! -f go.mod ]]; then
	echo "perfbench: no go.mod at $root; run from a checkout of the repository" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off

(cd perfbench && go build -o "$out/perfbench" .)

# Provenance: the commit when the checkout is itself a git work tree, and
# a digest of the Go sources either way.
PERFBENCH_COMMIT=none
if [[ -e .git ]]; then
	PERFBENCH_COMMIT="$(git rev-parse HEAD 2>/dev/null || echo none)"
fi
PERFBENCH_SOURCE="$(find . -path ./.bench_build -prune -o -name '*.go' -print | LC_ALL=C sort | xargs sha256sum | sha256sum | cut -c1-16)"
export PERFBENCH_COMMIT PERFBENCH_SOURCE

exec "$out/perfbench" "$@"
