#!/usr/bin/env bash
# bench_regression — end-to-end throughput gate (DESIGN.md §11), wired up
# as the `bench_regression` ctest: runs the smoke-scale sampler, parallel,
# distributed, and serving benches, then diffs their fresh JSON against the
# committed baselines in bench/baselines/ with bench_compare.
#
# Usage: bench_regression.sh <sampler_bench> <parallel_bench> \
#                            <dist_bench> <serve_bench> <bench_compare> \
#                            <baseline_dir>
#
# COLD_BENCH_GATE_TOLERANCE (default 0.5) is deliberately loose: smoke
# scale is seconds of work on whatever machine CI lands on, so the gate is
# tuned to catch wreck-the-hot-path regressions (on the order of 2x), not
# percent-level noise. On top of that the gate is best-of-N
# (COLD_BENCH_GATE_ATTEMPTS, default 3): a genuine regression fails every
# attempt, while a scheduler hiccup on a loaded box passes a retry. Update
# baselines by re-running the benches with COLD_BENCH_THREADS=2 and
# committing the new files (workflow in DESIGN.md §11).
set -euo pipefail

if [[ $# -ne 6 ]]; then
  echo "usage: $0 <sampler_bench> <parallel_bench> <dist_bench> <serve_bench> <bench_compare> <baseline_dir>" >&2
  exit 2
fi

SAMPLER_BENCH="$1"
PARALLEL_BENCH="$2"
DIST_BENCH="$3"
SERVE_BENCH="$4"
BENCH_COMPARE="$5"
BASELINE_DIR="$6"
TOLERANCE="${COLD_BENCH_GATE_TOLERANCE:-0.5}"
ATTEMPTS="${COLD_BENCH_GATE_ATTEMPTS:-3}"

WORK_DIR="$(mktemp -d /tmp/cold_bench_gate.XXXXXX)"
trap 'rm -rf "${WORK_DIR}"' EXIT

for f in "${SAMPLER_BENCH}" "${PARALLEL_BENCH}" "${DIST_BENCH}" \
         "${SERVE_BENCH}" "${BENCH_COMPARE}"; do
  [[ -x "$f" ]] || { echo "FAIL: missing executable $f" >&2; exit 2; }
done
for f in "${BASELINE_DIR}/sampler.json" "${BASELINE_DIR}/parallel.json" \
         "${BASELINE_DIR}/dist.json" "${BASELINE_DIR}/serve.json"; do
  [[ -r "$f" ]] || { echo "FAIL: missing baseline $f" >&2; exit 2; }
done

# Pin the thread series to the baselines' shape: baselines are recorded
# with COLD_BENCH_THREADS=2 so the comparison never depends on the host's
# core count.
export COLD_BENCH_THREADS=2

for attempt in $(seq 1 "${ATTEMPTS}"); do
  echo "== attempt ${attempt}/${ATTEMPTS}: smoke-scale sampler bench =="
  "${SAMPLER_BENCH}" --smoke --out "${WORK_DIR}/sampler.json"
  echo "== attempt ${attempt}/${ATTEMPTS}: smoke-scale parallel bench =="
  "${PARALLEL_BENCH}" --smoke --out "${WORK_DIR}/parallel.json"
  echo "== attempt ${attempt}/${ATTEMPTS}: smoke-scale dist bench =="
  "${DIST_BENCH}" --smoke --out "${WORK_DIR}/dist.json"
  echo "== attempt ${attempt}/${ATTEMPTS}: smoke-scale serve bench =="
  "${SERVE_BENCH}" --smoke --out "${WORK_DIR}/serve.json"

  STATUS=0
  echo "== gate: sampler vs baseline (tolerance ${TOLERANCE}) =="
  "${BENCH_COMPARE}" "${BASELINE_DIR}/sampler.json" \
    "${WORK_DIR}/sampler.json" --tolerance "${TOLERANCE}" || STATUS=1
  echo "== gate: parallel vs baseline (tolerance ${TOLERANCE}) =="
  "${BENCH_COMPARE}" "${BASELINE_DIR}/parallel.json" \
    "${WORK_DIR}/parallel.json" --tolerance "${TOLERANCE}" || STATUS=1
  echo "== gate: dist vs baseline (tolerance ${TOLERANCE}) =="
  "${BENCH_COMPARE}" "${BASELINE_DIR}/dist.json" \
    "${WORK_DIR}/dist.json" --tolerance "${TOLERANCE}" || STATUS=1
  echo "== gate: serve vs baseline (tolerance ${TOLERANCE}) =="
  "${BENCH_COMPARE}" "${BASELINE_DIR}/serve.json" \
    "${WORK_DIR}/serve.json" --tolerance "${TOLERANCE}" || STATUS=1

  if [[ "${STATUS}" -eq 0 ]]; then
    echo "PASS: bench regression gate clean (attempt ${attempt})"
    exit 0
  fi
  echo "attempt ${attempt}/${ATTEMPTS} over tolerance, retrying" >&2
done

echo "FAIL: throughput regressed past the gate tolerance on all ${ATTEMPTS} attempts" >&2
exit 1
