#!/usr/bin/env bash
# The edge benchmark's one command. Configures and builds bench/edge as a
# pinned Release tree from this checkout's sources, then runs one
# workload in its own process:
#
#   bash bench/edge/run.sh --workload steady_wire --seed 1 --seconds 15 --trace 0
#
# Arguments go to edge_bench unchanged (see bench/edge/README.md). Build
# output goes to stderr; stdout ends with the run's one-line JSON result.
# The build tree is $CARGO_TARGET_DIR when set, else .bench_build, under
# the repository root.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "${here}/../.." && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "${build}" in
  /*) ;;
  *) build="${root}/${build}" ;;
esac

cmake -S "${here}" -B "${build}" -DCMAKE_BUILD_TYPE=Release >&2
cmake --build "${build}" --target edge_bench -j 4 >&2
exec "${build}/edge_bench" "$@"
