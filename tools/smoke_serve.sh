#!/usr/bin/env bash
# End-to-end smoke check for the serving layer:
#
#   cold_generate -> cold_train (COLDARN1 arena) -> cold_predict
#                 -> cold_serve -> curl
#
# cold_train writes its model as the arena that both cold_predict and
# cold_serve map; cold_predict must answer from it, and both must refuse a
# file that is not an arena (a legacy COLDEST1 header) with exit 1. Drives
# the serving event loop over that arena with two reactors: N sequential
# /v1/diffusion POSTs must all return HTTP 200, two hot reloads must land
# (a POST /admin/reload probe takes the model to generation 2, a SIGHUP
# sent during the load to generation 3), /metrics must report a request
# count consistent with the load, the per-shard posterior cache counters
# in /debug/vars must sum to the service totals, and the reload swap stall
# measured by cold/serve/reload_swap_seconds must stay under a generous
# bound. The removed flags cold_train --arena-out, --topic-sampling and
# --sparse-mh-steps, and cold_serve --blocking, --top-communities,
# --replicas and --cache-shards must exit 2.
#
# Usage: tools/smoke_serve.sh [build-dir] [num-requests]
set -euo pipefail

BUILD_DIR="${1:-build}"
NUM_REQUESTS="${2:-10000}"
WORK_DIR="$(mktemp -d /tmp/cold_smoke.XXXXXX)"
SERVE_LOG="${WORK_DIR}/serve.log"
SERVE_PID=""

cleanup() {
  if [[ -n "${SERVE_PID}" ]] && kill -0 "${SERVE_PID}" 2>/dev/null; then
    kill -TERM "${SERVE_PID}" 2>/dev/null || true
    wait "${SERVE_PID}" 2>/dev/null || true
  fi
  rm -rf "${WORK_DIR}"
}
trap cleanup EXIT

die() { echo "FAIL: $*" >&2; exit 1; }

for bin in cold_generate cold_train cold_predict cold_serve; do
  [[ -x "${BUILD_DIR}/tools/${bin}" ]] \
    || die "missing ${BUILD_DIR}/tools/${bin} (build the project first)"
done
command -v curl >/dev/null || die "curl not found"

echo "== generate + train a small model =="
"${BUILD_DIR}/tools/cold_generate" "${WORK_DIR}/data" 120 4 6 8 \
  || die "cold_generate"
"${BUILD_DIR}/tools/cold_train" "${WORK_DIR}/data" "${WORK_DIR}/model.arena" \
  4 6 40 || die "cold_train"
[[ "$(head -c 8 "${WORK_DIR}/model.arena")" == "COLDARN1" ]] \
  || die "cold_train did not write a COLDARN1 arena"

echo "== cold_predict answers from the same arena =="
"${BUILD_DIR}/tools/cold_predict" "${WORK_DIR}/model.arena" topics \
  >"${WORK_DIR}/topics.txt" || die "cold_predict topics"
TOPICS="$(grep -c '^topic ' "${WORK_DIR}/topics.txt" || true)"
[[ "${TOPICS}" -eq 6 ]] || die "cold_predict topics printed ${TOPICS} topics, wanted 6"
"${BUILD_DIR}/tools/cold_predict" "${WORK_DIR}/model.arena" diffusion 0 1 0,1,2 \
  >"${WORK_DIR}/diffusion.txt" || die "cold_predict diffusion"
grep -q '^P(1 retweets 0' "${WORK_DIR}/diffusion.txt" \
  || die "cold_predict diffusion printed: $(cat "${WORK_DIR}/diffusion.txt")"
echo "  ok topics, diffusion"

echo "== a file that is not an arena is refused =="
{ printf 'COLDEST1'; head -c 256 /dev/zero; } >"${WORK_DIR}/legacy.bin"
RC=0
"${BUILD_DIR}/tools/cold_predict" "${WORK_DIR}/legacy.bin" topics \
  >/dev/null 2>&1 || RC=$?
[[ "${RC}" -eq 1 ]] || die "cold_predict on a non-arena file exited ${RC}, wanted 1"
RC=0
timeout 10 "${BUILD_DIR}/tools/cold_serve" "${WORK_DIR}/legacy.bin" \
  --port 0 >/dev/null 2>&1 || RC=$?
[[ "${RC}" -eq 1 ]] || die "cold_serve on a non-arena file exited ${RC}, wanted 1"
echo "  ok cold_predict and cold_serve exit 1"

echo "== removed flags are rejected =="
expect_usage() {  # expect_usage <name> <command...>
  local name="$1" rc=0; shift
  timeout 10 "$@" >/dev/null 2>&1 || rc=$?
  [[ "${rc}" -eq 2 ]] || die "${name} exited ${rc}, wanted 2"
  echo "  ok ${name} exits 2"
}
expect_usage "cold_train --arena-out" "${BUILD_DIR}/tools/cold_train" \
  "${WORK_DIR}/data" "${WORK_DIR}/unused.arena" 4 6 40 \
  --arena-out "${WORK_DIR}/unused2.arena"
[[ ! -e "${WORK_DIR}/unused.arena" ]] || die "rejected cold_train wrote a model"
expect_usage "cold_serve --blocking" "${BUILD_DIR}/tools/cold_serve" \
  "${WORK_DIR}/model.arena" --port 0 --blocking
expect_usage "cold_serve --top-communities" "${BUILD_DIR}/tools/cold_serve" \
  "${WORK_DIR}/model.arena" --port 0 --top-communities 1
expect_usage "cold_serve --replicas" "${BUILD_DIR}/tools/cold_serve" \
  "${WORK_DIR}/model.arena" --port 0 --replicas 2
expect_usage "cold_serve --cache-shards" "${BUILD_DIR}/tools/cold_serve" \
  "${WORK_DIR}/model.arena" --port 0 --cache-shards 4
expect_usage "cold_train --topic-sampling" "${BUILD_DIR}/tools/cold_train" \
  "${WORK_DIR}/data" "${WORK_DIR}/unused.arena" 4 6 40 --topic-sampling sparse
expect_usage "cold_train --sparse-mh-steps" "${BUILD_DIR}/tools/cold_train" \
  "${WORK_DIR}/data" "${WORK_DIR}/unused.arena" 4 6 40 --sparse-mh-steps 3
[[ ! -e "${WORK_DIR}/unused.arena" ]] || die "rejected cold_train wrote a model"

echo "== start cold_serve (epoll, arena snapshot, 2 reactors) =="
"${BUILD_DIR}/tools/cold_serve" "${WORK_DIR}/model.arena" --port 0 \
  --reactors 2 >"${SERVE_LOG}" 2>&1 &
SERVE_PID=$!

PORT=""
for _ in $(seq 1 50); do
  PORT="$(sed -n 's/.*cold_serve listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' \
    "${SERVE_LOG}" | head -n1)"
  [[ -n "${PORT}" ]] && break
  kill -0 "${SERVE_PID}" 2>/dev/null || die "server exited: $(cat "${SERVE_LOG}")"
  sleep 0.1
done
[[ -n "${PORT}" ]] && echo "server up on port ${PORT}" \
  || die "server never reported its port"
BASE="http://127.0.0.1:${PORT}"

echo "== probe every endpoint once =="
check() {  # check <expected-code> <name> <curl args...>
  local expect="$1" name="$2"; shift 2
  local code
  code="$(curl -s -o "${WORK_DIR}/last_body" -w '%{http_code}' "$@")" \
    || die "curl transport error on ${name}"
  [[ "${code}" == "${expect}" ]] \
    || die "${name}: HTTP ${code} (wanted ${expect}): $(cat "${WORK_DIR}/last_body")"
  echo "  ok ${name} (${code})"
}

check 200 "GET /healthz" "${BASE}/healthz"
check 200 "POST /v1/diffusion" -X POST \
  -d '{"publisher": 0, "candidate": 1, "words": [0, 1, 2]}' \
  "${BASE}/v1/diffusion"
check 200 "POST /v1/diffusion fan-out" -X POST \
  -d '{"publisher": 0, "candidates": [1, 2, 3], "words": [0, 1]}' \
  "${BASE}/v1/diffusion"
check 200 "POST /v1/topic_posterior" -X POST \
  -d '{"author": 0, "words": [0, 1, 2]}' "${BASE}/v1/topic_posterior"
check 200 "POST /v1/link" -X POST \
  -d '{"source": 0, "target": 1}' "${BASE}/v1/link"
check 200 "POST /v1/timestamp" -X POST \
  -d '{"author": 0, "words": [0, 1]}' "${BASE}/v1/timestamp"
check 200 "GET /v1/influential_communities" \
  "${BASE}/v1/influential_communities?topic=0&n=3&trials=8"
check 200 "POST /admin/reload" -X POST "${BASE}/admin/reload"
check 400 "malformed JSON -> 400" -X POST -d '{"publisher":' \
  "${BASE}/v1/diffusion"
check 422 "out-of-range author -> 422" -X POST \
  -d '{"author": 999999, "words": [0]}' "${BASE}/v1/topic_posterior"
check 404 "unknown route -> 404" "${BASE}/v1/nope"

echo "== ${NUM_REQUESTS} sequential /v1/diffusion requests =="
# One keep-alive connection, batched through curl's config reader so we do
# not fork per request. Every response must be HTTP 200.
CONFIG="${WORK_DIR}/curl_batch.cfg"
# "next" resets per-transfer options; without it curl would concatenate
# every data line into one giant body shared by all transfers.
BLOCK='url = "'${BASE}'/v1/diffusion"
data = "{\"publisher\": 0, \"candidate\": 1, \"words\": [0, 1, 2]}"
output = "/dev/null"
write-out = "%{http_code}\n"'
{
  printf '%s\n' "${BLOCK}"
  for _ in $(seq 2 "${NUM_REQUESTS}"); do
    printf 'next\n%s\n' "${BLOCK}"
  done
} >"${CONFIG}"
( sleep 0.1; kill -HUP "${SERVE_PID}" ) &  # hot reload during the load
HUP_WAITER=$!
CODES="$(curl -s -K "${CONFIG}")" || die "bulk curl failed"
wait "${HUP_WAITER}" 2>/dev/null || true
NON_200="$(echo "${CODES}" | grep -cv '^200$' || true)"
TOTAL="$(echo "${CODES}" | wc -l)"
[[ "${TOTAL}" -eq "${NUM_REQUESTS}" ]] \
  || die "expected ${NUM_REQUESTS} responses, saw ${TOTAL}"
[[ "${NON_200}" -eq 0 ]] || die "${NON_200}/${TOTAL} non-200 responses"
echo "  ${TOTAL}/${TOTAL} returned 200"

echo "== the SIGHUP reload lands (generation 3) =="
# Loading the model was generation 1 and the /admin/reload probe 2; the
# serving loop polls for SIGHUP every 100 ms.
GENERATION=0
for _ in $(seq 1 50); do
  GENERATION="$(curl -s "${BASE}/healthz" \
    | sed -n 's/.*"generation": *\([0-9]*\).*/\1/p')"
  [[ "${GENERATION:-0}" -ge 3 ]] && break
  sleep 0.1
done
[[ "${GENERATION:-0}" -ge 3 ]] \
  || die "SIGHUP reload never landed: generation ${GENERATION:-none}"
echo "  generation ${GENERATION}"

echo "== /metrics consistency =="
curl -s "${BASE}/metrics" >"${WORK_DIR}/metrics.txt" || die "GET /metrics"
for family in cold_serve_requests cold_serve_request_seconds \
    cold_serve_connections cold_serve_reloads; do
  grep -q "${family}" "${WORK_DIR}/metrics.txt" \
    || die "/metrics missing family ${family}"
done
DIFFUSION_COUNT="$(sed -n \
  's/^cold_serve_requests{endpoint="diffusion"} \([0-9.e+]*\)$/\1/p' \
  "${WORK_DIR}/metrics.txt" | head -n1)"
[[ -n "${DIFFUSION_COUNT}" ]] || die "no diffusion request counter exported"
# Integer-compare (counter prints as an integral double).
[[ "${DIFFUSION_COUNT%.*}" -ge "${NUM_REQUESTS}" ]] \
  || die "diffusion counter ${DIFFUSION_COUNT} < load ${NUM_REQUESTS}"
echo "  cold_serve_requests{endpoint=\"diffusion\"} = ${DIFFUSION_COUNT} (>= ${NUM_REQUESTS})"

echo "== /debug/vars exposes parseable telemetry with quantiles =="
curl -s "${BASE}/debug/vars" >"${WORK_DIR}/debug_vars.json" \
  || die "GET /debug/vars"
if command -v python3 >/dev/null; then
  python3 - "${WORK_DIR}/debug_vars.json" "${NUM_REQUESTS}" <<'PYEOF' \
    || die "/debug/vars invalid"
import json, sys
with open(sys.argv[1]) as f:
    vars = json.load(f)
n_requests = int(sys.argv[2])
assert vars["model_loaded"] is True, "model_loaded not true"
assert "generation" in vars, "missing generation"
assert vars["generation"] >= 3, f"SIGHUP reload never landed: {vars['generation']}"
assert vars["snapshot_format"] == "coldarn1", \
    f"not serving from the arena: {vars.get('snapshot_format')}"
# The posterior cache's {shard} series add up to the service totals.
counters = vars["telemetry"]["counters"]
def total(name):
    return sum(c["value"] for c in counters if c["name"] == name)
for kind in ("hits", "misses"):
    shards = total(f"cold/serve/cache_{kind}")
    service = total(f"cold/serve/posterior_cache_{kind}")
    assert shards == service, f"cache_{kind} shards sum {shards} != {service}"
assert total("cold/serve/posterior_cache_hits") > 0, "no cache hits"
print("  cache_hits/misses shard sums match the service totals")
hists = vars["telemetry"]["histograms"]
assert hists, "no histograms exported"
by_name = {h["name"]: h for h in hists}
# request_seconds has one series per endpoint; the load hit diffusion.
latency = next(h for h in hists
               if h["name"] == "cold/serve/request_seconds"
               and h["labels"].get("endpoint") == "diffusion")
assert latency["count"] >= n_requests, f"diffusion latencies: {latency['count']}"
q = latency["quantiles"]
for key in ("p50", "p90", "p99"):
    assert key in q, f"missing quantile {key}"
    assert q[key] is None or q[key] > 0, f"{key} not positive: {q[key]}"
assert q["p99"] is not None, "p99 null despite load"
print(f"  diffusion request_seconds p50={q['p50']:.6f}s p99={q['p99']:.6f}s")
swap = by_name["cold/serve/reload_swap_seconds"]["quantiles"]
assert swap["p99"] is not None, "no reload swap samples despite SIGHUP"
# The swap is one pointer swap under a mutex; tens of microseconds even
# on a loaded box. 10ms is the deliberately generous smoke bound.
assert swap["p99"] < 0.010, f"reload swap stall too high: {swap['p99']}s"
print(f"  reload_swap_seconds p99={swap['p99'] * 1e6:.1f}us (bound 10ms)")
PYEOF
else
  # No python3: at least assert the endpoint answers with the quantile keys.
  grep -q '"quantiles"' "${WORK_DIR}/debug_vars.json" \
    || die "/debug/vars missing quantiles"
  grep -q '"p99"' "${WORK_DIR}/debug_vars.json" \
    || die "/debug/vars missing p99"
  echo "  quantile keys present (python3 unavailable for full parse)"
fi

echo "== graceful shutdown =="
kill -TERM "${SERVE_PID}"
wait "${SERVE_PID}" || die "server exited non-zero"
SERVE_PID=""
echo "PASS: serving smoke check complete"
