#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Builds the benchmark from source and
# runs it, keeping every build artefact (Go build cache included) inside the
# checkout under .bench_build/, so a run reads and writes nothing outside it.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
export GOCACHE="$root/.bench_build/go-cache" GOTOOLCHAIN=local GOFLAGS=-mod=mod
mkdir -p "$root/.bench_build/bin"
go build -C "$root/bench" -o "$root/.bench_build/bin/oabenchmark" .
cd "$root"
exec "$root/.bench_build/bin/oabenchmark" "$@"
