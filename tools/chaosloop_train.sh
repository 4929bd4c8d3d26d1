#!/usr/bin/env bash
# Network/process chaos acceptance drill for self-healing distributed
# training (DESIGN.md §12):
#
#   cold_generate -> single-process reference (--parallel --threads 1)
#                 -> clean SUPERVISED --nodes run (no faults): supervision
#                    must not perturb the model — byte-identical, and no
#                    restart may occur
#                 -> kill+stop drill: SIGKILL rank 1 AND SIGSTOP rank 2 at
#                    the same mid-run sweep (COLD_FAULT_POINT @rank
#                    scoping); the supervisor must reap the dead rank,
#                    SIGKILL the hung one, and restart from the newest
#                    common checkpoint with no human intervention
#                 -> stall drill: COLD_NET_FAULT freezes every send on
#                    rank 1 (heartbeats included) mid-superstep — only the
#                    coordinator's liveness deadline can catch this
#                 -> drop drill: the coordinator silently drops one
#                    kGlobal frame while its heartbeats keep flowing —
#                    only the worker's progress deadline can catch this
#
# Every recovered model is byte-compared against the reference: recovery
# must be bit-identical, not merely "converged".
#
# Injected faults fire once per job (recovery attempts run disarmed), so
# the fault sweeps need no alignment with the checkpoint cadence.
#
# Usage: tools/chaosloop_train.sh [build-dir] [iterations] [fault-sweep]
set -euo pipefail

BUILD_DIR="${1:-build}"
ITERATIONS="${2:-16}"
FAULT_SWEEP="${3:-$(( (ITERATIONS / 2) - 1 ))}"
C=4
K=6
WORK_DIR="$(mktemp -d /tmp/cold_chaosloop.XXXXXX)"

# Tight liveness knobs so detection, not training, dominates runtime.
LIVENESS=(--heartbeat-interval-ms 100 --heartbeat-timeout-ms 2000
          --progress-timeout-ms 5000)
CKPT=(--checkpoint-every 2 --checkpoint-keep 3)

cleanup() { rm -rf "${WORK_DIR}"; }
trap cleanup EXIT

die() { echo "FAIL: $*" >&2; exit 1; }

for bin in cold_generate cold_train; do
  [[ -x "${BUILD_DIR}/tools/${bin}" ]] \
    || die "missing ${BUILD_DIR}/tools/${bin} (build the project first)"
done
(( FAULT_SWEEP >= 3 && FAULT_SWEEP < ITERATIONS )) \
  || die "fault sweep ${FAULT_SWEEP} outside training schedule"

echo "== generate dataset (faults at sweep ${FAULT_SWEEP}/${ITERATIONS}) =="
"${BUILD_DIR}/tools/cold_generate" "${WORK_DIR}/data" 120 "${C}" "${K}" 8 \
  || die "cold_generate"

echo "== single-process reference run =="
"${BUILD_DIR}/tools/cold_train" "${WORK_DIR}/data" \
  "${WORK_DIR}/model_ref.bin" "${C}" "${K}" "${ITERATIONS}" \
  --parallel --threads 1 \
  || die "reference train"

echo "== clean supervised 2-node run must be bit-identical, no restarts =="
"${BUILD_DIR}/tools/cold_train" "${WORK_DIR}/data" \
  "${WORK_DIR}/model_clean.bin" "${C}" "${K}" "${ITERATIONS}" \
  --nodes 2 --threads 1 --max-restarts 2 "${LIVENESS[@]}" \
  --checkpoint-dir "${WORK_DIR}/ckpt_clean" "${CKPT[@]}" \
  >"${WORK_DIR}/clean.log" 2>&1 || die "clean supervised train"
grep -q "restarting from" "${WORK_DIR}/clean.log" \
  && die "clean supervised run must not restart"
cmp "${WORK_DIR}/model_ref.bin" "${WORK_DIR}/model_clean.bin" \
  || die "clean supervised model differs from the reference"
echo "  clean supervised model is byte-identical to the reference"

echo "== kill+stop drill: SIGKILL rank 1, SIGSTOP rank 2, 3 nodes =="
COLD_FAULT_POINT="after_sweep:${FAULT_SWEEP}:kill@1,after_sweep:${FAULT_SWEEP}:stop@2" \
  "${BUILD_DIR}/tools/cold_train" "${WORK_DIR}/data" \
  "${WORK_DIR}/model_killstop.bin" "${C}" "${K}" "${ITERATIONS}" \
  --nodes 3 --threads 1 --max-restarts 3 "${LIVENESS[@]}" \
  --checkpoint-dir "${WORK_DIR}/ckpt_killstop" "${CKPT[@]}" \
  >"${WORK_DIR}/killstop.log" 2>&1 || die "kill+stop drill did not recover"
grep -q "restarting from" "${WORK_DIR}/killstop.log" \
  || die "kill+stop drill never restarted (faults did not fire?)"
grep -q "recovered after" "${WORK_DIR}/killstop.log" \
  || die "kill+stop drill did not report recovery"
cmp "${WORK_DIR}/model_ref.bin" "${WORK_DIR}/model_killstop.bin" \
  || die "kill+stop recovered model differs from the reference"
echo "  recovered model is byte-identical after SIGKILL + SIGSTOP"

echo "== stall drill: rank 1 goes silent (liveness deadline) =="
COLD_NET_FAULT="stall:1:${FAULT_SWEEP}" \
  "${BUILD_DIR}/tools/cold_train" "${WORK_DIR}/data" \
  "${WORK_DIR}/model_stall.bin" "${C}" "${K}" "${ITERATIONS}" \
  --nodes 2 --threads 1 --max-restarts 3 "${LIVENESS[@]}" \
  --checkpoint-dir "${WORK_DIR}/ckpt_stall" "${CKPT[@]}" \
  >"${WORK_DIR}/stall.log" 2>&1 || die "stall drill did not recover"
grep -q "restarting from" "${WORK_DIR}/stall.log" \
  || die "stall drill never restarted (stall did not fire?)"
grep -Eq "silent past the liveness deadline|accept deadline" \
  "${WORK_DIR}/stall.log" \
  || die "stall was not detected by a liveness deadline"
cmp "${WORK_DIR}/model_ref.bin" "${WORK_DIR}/model_stall.bin" \
  || die "stall-recovered model differs from the reference"
echo "  hung peer detected by heartbeat timeout; recovery byte-identical"

echo "== drop drill: coordinator drops one kGlobal (progress deadline) =="
COLD_NET_FAULT="drop:0:${FAULT_SWEEP}" \
  "${BUILD_DIR}/tools/cold_train" "${WORK_DIR}/data" \
  "${WORK_DIR}/model_drop.bin" "${C}" "${K}" "${ITERATIONS}" \
  --nodes 2 --threads 1 --max-restarts 3 "${LIVENESS[@]}" \
  --checkpoint-dir "${WORK_DIR}/ckpt_drop" "${CKPT[@]}" \
  >"${WORK_DIR}/drop.log" 2>&1 || die "drop drill did not recover"
grep -q "restarting from" "${WORK_DIR}/drop.log" \
  || die "drop drill never restarted (drop did not fire?)"
cmp "${WORK_DIR}/model_ref.bin" "${WORK_DIR}/model_drop.bin" \
  || die "drop-recovered model differs from the reference"
echo "  dropped frame detected; recovery byte-identical"

echo "PASS: chaosloop train check complete"
