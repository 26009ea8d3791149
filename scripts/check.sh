#!/usr/bin/env bash
# Pre-merge gate: tier-1 correctness, the bench smokes, the codec and paper
# goldens, and the full test suite under the sanitizers.
#
#   1. Configure+build the `default` preset, run the full test suite (the
#      tier-1 bar: everything must pass), the bench_micro and bench_simcore
#      smokes, the perfbench selftest, bench_codec against its golden JSON
#      (bench/golden/codec.json), the fleet, transport, device and cluster
#      sweeps against theirs (bench/golden/{fleet,transport,devices,
#      cluster}.json), bench_paper against its golden stdout
#      (bench/golden/paper.txt), and the Chrome traces those runs write
#      against their digests (bench/golden/traces.sha256).
#   2. Configure+build the `sanitize` preset (ASan+UBSan, build-asan/) and
#      run the full test suite under the sanitizers.
#
# Both presets are configured with warnings as errors (the root
# CMakeLists.txt enables -Wall -Wextra), which needs CMake >= 3.24. The
# setting lives here rather than in CMakeLists.txt so that other builds of
# the sources, such as perfbench's Release build, keep their own flags.
#
# Usage: scripts/check.sh [--sanitize-only | --tier1-only]
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 4)"
RUN_TIER1=1
RUN_SANITIZE=1
case "${1:-}" in
  --sanitize-only) RUN_TIER1=0 ;;
  --tier1-only) RUN_SANITIZE=0 ;;
  "") ;;
  *) echo "usage: scripts/check.sh [--sanitize-only | --tier1-only]" >&2; exit 2 ;;
esac

if [[ "$RUN_TIER1" == 1 ]]; then
  echo "== tier-1: default preset build + full ctest =="
  cmake --preset default -DCMAKE_COMPILE_WARNING_AS_ERROR=ON >/dev/null
  cmake --build --preset default -j "$JOBS"
  ctest --preset default

  # Telemetry smoke: bench_micro's non-benchmark sections run a web workload
  # with all telemetry facilities off and again with them on, and THINC_CHECK
  # that wire bytes, virtual end time, and applied commands are identical —
  # the "telemetry can never change results" invariant, end to end.
  echo "== telemetry smoke: bench_micro invariant sections =="
  ./build/bench/bench_micro --benchmark_filter='^$'

  # Simulator-core smoke: the lazy-delete heap queue must fire the exact
  # transcript of the std::map baseline on churn and cancel-heavy workloads,
  # and clear >= 2x the map's events/sec when cancels dominate.
  echo "== simcore smoke: bench_simcore --smoke =="
  ./build/bench/bench_simcore --smoke

  # Benchmark selftest: perfbench's own tests, built (Release) into the
  # gitignored .bench_build/ by perfbench/run.py.
  echo "== perfbench selftest: perfbench/run.py --selftest =="
  python3 perfbench/run.py --selftest

  # Codec golden: bench_codec's full run with adaptive selection on — the
  # ladder rung sweep, the WAN equal-fidelity A/B (THINC_CHECKs that the
  # delta rung engages, both arms stay pixel-exact, and delta moves fewer
  # bytes) and the starved-WAN A/B — and its BENCH_codec.json must equal
  # bench/golden/codec.json byte for byte. The env knobs are cleared so the
  # run covers the full web suite and default clip.
  echo "== codec golden: bench_codec vs bench/golden/codec.json =="
  (cd build/bench && env -u THINC_WEB_PAGES -u THINC_AV_FULL ./bench_codec >/dev/null)
  cmp bench/golden/codec.json build/bench/BENCH_codec.json

  # Sweep goldens: the fleet, transport, device and cluster sweeps report
  # virtual-time quantities only, so each BENCH_*.json must equal its golden
  # byte for byte. Their THINC_CHECKs gate the rest: the loopback moves
  # frame payload with zero copies, the phone's lossy path drops segments,
  # and a migrating cluster loses no update and beats the full-refresh
  # blackout bound.
  echo "== sweep goldens: fleet/transport/devices/cluster vs bench/golden/ =="
  (cd build/bench &&
    for sweep in bench_fleet_capacity bench_transport bench_devices bench_cluster; do
      "./$sweep" >/dev/null
    done)
  for golden in fleet transport devices cluster; do
    cmp "bench/golden/$golden.json" "build/bench/BENCH_$golden.json"
  done

  # Paper golden: bench_paper runs every Section 8 table, figure and
  # ablation once (THINC_CHECKing the paper's shape claims on the way) and
  # its stdout must equal bench/golden/paper.txt byte for byte. The env
  # knobs are cleared so the run covers the full suite and default clip.
  echo "== paper golden: bench_paper vs bench/golden/paper.txt =="
  (cd build/bench && env -u THINC_WEB_PAGES -u THINC_AV_FULL ./bench_paper) |
    diff -u bench/golden/paper.txt -

  # Trace goldens: the Chrome traces the fleet sweep, the cluster sweep and
  # the paper's Fig. 2 breakdown write hold virtual time only, and each
  # holds only its own run's hosts (telemetry is scoped to the run), so each
  # must hash to its digest in bench/golden/traces.sha256.
  echo "== trace goldens: TRACE_*.json vs bench/golden/traces.sha256 =="
  (cd build/bench && sha256sum -c ../../bench/golden/traces.sha256)
fi

if [[ "$RUN_SANITIZE" == 1 ]]; then
  echo "== sanitize: ASan+UBSan over the full test suite =="
  cmake --preset sanitize -DCMAKE_COMPILE_WARNING_AS_ERROR=ON >/dev/null
  cmake --build --preset sanitize -j "$JOBS"
  ctest --preset sanitize
fi

echo "check.sh: all gates passed"
