#!/usr/bin/env bash
# Distributed crash/recovery acceptance check (DESIGN.md §12):
#
#   cold_generate -> single-process reference (--parallel --threads 1)
#                 -> the value-taking `--parallel 1` spelling exits 2
#                 -> clean --nodes 2 run, model must be byte-identical
#                 -> --nodes 2 again with one node SIGKILL'd mid-run via
#                    COLD_FAULT_NODE/COLD_FAULT_POINT (job must abort)
#                 -> --resume restart picks up the common checkpoint sweep
#                 -> resumed model must be byte-identical to the reference
#
# Exercises the real multi-process path: cold_train self-forks N local
# nodes talking length-prefixed frames over loopback TCP.
#
# Usage: tools/distloop_train.sh [build-dir] [iterations] [kill-sweep]
#        kill-sweep defaults to a random sweep in the middle of the run.
set -euo pipefail

BUILD_DIR="${1:-build}"
ITERATIONS="${2:-24}"
KILL_SWEEP="${3:-$(( (RANDOM % (ITERATIONS / 2)) + ITERATIONS / 4 ))}"
C=4
K=6
NODES=2
WORK_DIR="$(mktemp -d /tmp/cold_distloop.XXXXXX)"
CKPT_DIR="${WORK_DIR}/ckpt"

cleanup() { rm -rf "${WORK_DIR}"; }
trap cleanup EXIT

die() { echo "FAIL: $*" >&2; exit 1; }

for bin in cold_generate cold_train; do
  [[ -x "${BUILD_DIR}/tools/${bin}" ]] \
    || die "missing ${BUILD_DIR}/tools/${bin} (build the project first)"
done
(( KILL_SWEEP >= 1 && KILL_SWEEP < ITERATIONS )) \
  || die "kill sweep ${KILL_SWEEP} outside training schedule"

echo "== generate dataset (kill node 1 at sweep ${KILL_SWEEP}/${ITERATIONS}) =="
"${BUILD_DIR}/tools/cold_generate" "${WORK_DIR}/data" 120 "${C}" "${K}" 8 \
  || die "cold_generate"

echo "== single-process reference run =="
"${BUILD_DIR}/tools/cold_train" "${WORK_DIR}/data" \
  "${WORK_DIR}/model_ref.bin" "${C}" "${K}" "${ITERATIONS}" \
  --parallel --threads 1 \
  || die "reference train"

echo "== --parallel takes no value: '--parallel 1' must exit 2 =="
set +e
"${BUILD_DIR}/tools/cold_train" "${WORK_DIR}/data" \
  "${WORK_DIR}/model_misparsed.bin" "${C}" "${K}" "${ITERATIONS}" \
  --parallel 1 --threads 1 >"${WORK_DIR}/misparse.log" 2>&1
MISPARSE_CODE=$?
set -e
[[ "${MISPARSE_CODE}" -eq 2 ]] \
  || die "'--parallel 1' exited ${MISPARSE_CODE}, want 2"
[[ ! -e "${WORK_DIR}/model_misparsed.bin" ]] \
  || die "'--parallel 1' must not write a model"
echo "  rejected with exit 2, no model written"

echo "== clean ${NODES}-node run must be bit-identical =="
"${BUILD_DIR}/tools/cold_train" "${WORK_DIR}/data" \
  "${WORK_DIR}/model_dist.bin" "${C}" "${K}" "${ITERATIONS}" \
  --nodes "${NODES}" --threads 1 \
  || die "clean ${NODES}-node train"
cmp "${WORK_DIR}/model_ref.bin" "${WORK_DIR}/model_dist.bin" \
  || die "${NODES}-node model differs from the single-process reference"
echo "  ${NODES}-node model is byte-identical to the reference"

echo "== SIGKILL node 1 mid-training; the job must abort =="
set +e
COLD_FAULT_NODE=1 COLD_FAULT_POINT="after_sweep:${KILL_SWEEP}" \
  "${BUILD_DIR}/tools/cold_train" "${WORK_DIR}/data" \
  "${WORK_DIR}/model_crashed.bin" "${C}" "${K}" "${ITERATIONS}" \
  --nodes "${NODES}" --threads 1 \
  --checkpoint-dir "${CKPT_DIR}" --checkpoint-every 2 --checkpoint-keep 3 \
  >"${WORK_DIR}/crash.log" 2>&1
CRASH_CODE=$?
set -e
[[ "${CRASH_CODE}" -ne 0 ]] \
  || die "job with a killed node must exit nonzero"
[[ ! -e "${WORK_DIR}/model_crashed.bin" ]] \
  || die "aborted run must not have written a model"
for rank in $(seq 0 $((NODES - 1))); do
  ls "${CKPT_DIR}/node-${rank}"/ckpt-*.cold >/dev/null 2>&1 \
    || die "no checkpoint survived on node ${rank}"
done
echo "  job aborted (exit ${CRASH_CODE}); per-node checkpoints survived"

echo "== resume and compare =="
"${BUILD_DIR}/tools/cold_train" "${WORK_DIR}/data" \
  "${WORK_DIR}/model_resumed.bin" "${C}" "${K}" "${ITERATIONS}" \
  --nodes "${NODES}" --threads 1 \
  --checkpoint-dir "${CKPT_DIR}" --checkpoint-every 2 --checkpoint-keep 3 \
  --resume >"${WORK_DIR}/resume.log" 2>&1 || die "resume train"
grep -q "resumed from" "${WORK_DIR}/resume.log" \
  || die "resume did not report a negotiated checkpoint sweep"
cmp "${WORK_DIR}/model_ref.bin" "${WORK_DIR}/model_resumed.bin" \
  || die "resumed model differs from the single-process reference"
echo "  resumed model is byte-identical to the reference"

echo "PASS: distloop train check complete"
