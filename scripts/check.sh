#!/usr/bin/env bash
# Pre-merge gate: tier-1 correctness, the bench smokes, the codec and paper
# goldens, and the full test suite under the sanitizers.
#
#   1. Configure+build the `default` preset, run the full test suite (the
#      tier-1 bar: everything must pass), the bench smokes, the perfbench
#      selftest, bench_codec against its golden JSON
#      (bench/golden/codec.json), the fleet, transport, device and cluster
#      sweeps against theirs (bench/golden/{fleet,transport,devices,
#      cluster}.json), and bench_paper against its golden stdout
#      (bench/golden/paper.txt).
#   2. Configure+build the `sanitize` preset (ASan+UBSan, build-asan/) and
#      run the full test suite under the sanitizers.
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
  cmake --preset default >/dev/null
  cmake --build --preset default -j "$JOBS"
  ctest --preset default

  # Telemetry smoke: bench_micro's non-benchmark sections run a web workload
  # with all telemetry facilities off and again with them on, and THINC_CHECK
  # that wire bytes, virtual end time, and applied commands are identical —
  # the "telemetry can never change results" invariant, end to end.
  echo "== telemetry smoke: bench_micro invariant sections =="
  ./build/bench/bench_micro --benchmark_filter='^$'

  # Fleet smoke: an 8-session multi-tenant host run twice, with telemetry
  # fully off and fully on; THINC_CHECKs that wire bytes and virtual end
  # time are identical (shared-CPU/NIC arbitration must be unperturbed).
  echo "== fleet smoke: bench_fleet_capacity --smoke =="
  ./build/bench/bench_fleet_capacity --smoke

  # Transport smoke: a co-located web run over the loopback transport;
  # THINC_CHECKs that frame payload moved by reference (payload bytes > 0
  # with ZERO memcpy'd payload bytes — the zero-copy handoff gate).
  echo "== transport smoke: bench_transport --smoke =="
  ./build/bench/bench_transport --smoke

  # Simulator-core smoke: the lazy-delete heap queue must fire the exact
  # transcript of the std::map baseline on churn and cancel-heavy workloads,
  # and clear >= 2x the map's events/sec when cancels dominate.
  echo "== simcore smoke: bench_simcore --smoke =="
  ./build/bench/bench_simcore --smoke

  # Cluster smoke: a 2-host skewed cluster run twice (telemetry off, then
  # spans on); THINC_CHECKs that the migration schedule, per-session bytes,
  # framebuffer hashes, and virtual end time are identical across reruns,
  # that at least one live migration completes with zero lost updates, and
  # that blackout p95 stays under the full-refresh handoff bound.
  echo "== cluster smoke: bench_cluster --smoke =="
  ./build/bench/bench_cluster --smoke

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

  # Device smoke: the trace-driven device-class table run twice; THINC_CHECKs
  # that the JSON is byte-identical across reruns (determinism over lossy
  # paths included), that the phone negotiated its panel viewport, and that
  # its Gilbert-Elliott WAN path actually dropped segments.
  echo "== device smoke: bench_devices --smoke =="
  ./build/bench/bench_devices --smoke

  # Sweep goldens: the full fleet, transport, device and cluster sweeps
  # report virtual-time quantities only, so each BENCH_*.json must equal
  # its golden byte for byte. The env knobs are cleared so every sweep runs
  # at full size.
  echo "== sweep goldens: fleet/transport/devices/cluster vs bench/golden/ =="
  (cd build/bench &&
    for sweep in bench_fleet_capacity bench_transport bench_devices bench_cluster; do
      env -u THINC_WEB_PAGES -u THINC_FLEET_PAGES -u THINC_FLEET_MAX_N \
        -u THINC_CLUSTER_PAGES -u THINC_CLUSTER_MAX_HOSTS "./$sweep" >/dev/null
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
fi

if [[ "$RUN_SANITIZE" == 1 ]]; then
  echo "== sanitize: ASan+UBSan over the full test suite =="
  cmake --preset sanitize >/dev/null
  cmake --build --preset sanitize -j "$JOBS"
  ctest --preset sanitize
fi

echo "check.sh: all gates passed"
