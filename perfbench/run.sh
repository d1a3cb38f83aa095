#!/usr/bin/env bash
# Builds the repository benchmark from source and runs it with the given
# arguments, e.g.
#
#   bash perfbench/run.sh --workload micro-grid --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Everything the build and the run write stays
# under .bench_build/ in the current directory: the Go build cache, the
# binary, CPU profiles and the per-run result records.
set -euo pipefail

root="$(pwd)"
out="${root}/.bench_build"

if ! command -v go >/dev/null 2>&1; then
	echo "perfbench: the go toolchain is not on PATH" >&2
	exit 2
fi
if [ ! -f "${root}/go.mod" ] || [ ! -d "${root}/internal" ]; then
	echo "perfbench: run from the root of an ffccd checkout (go.mod and internal/ not found)" >&2
	exit 2
fi

mkdir -p "${out}"
export GOCACHE="${out}/gocache"
export GOTOOLCHAIN=local
export GOTELEMETRY=off
export XDG_CONFIG_HOME="${out}/config"
export PPROF_TMPDIR="${out}/pprof"
export PERFBENCH_OUT="${out}"

(cd "${root}/perfbench" && go build -o "${out}/perfbench" .) >&2
exec "${out}/perfbench" "$@"
