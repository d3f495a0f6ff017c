#!/usr/bin/env bash
# serve_smoke.sh — end-to-end smoke of the ccrd daemon and ccrctl client:
# start a daemon on a private unix socket, exercise the request surface
# (ping, simulate, streaming batch, verify), check the live status and the
# per-request span log, run a short loadgen pass with the BENCH_serve.json
# gates, then SIGTERM-drain and require a clean exit and a flushed
# manifest.
#
# Usage:
#   scripts/serve_smoke.sh [outdir]
#
# Environment:
#   SCALE     workload scale (default tiny; CI uses tiny)
#   CLIENTS   loadgen concurrent clients (default 8)
#   REQUESTS  loadgen hammer-phase requests (default 200)
#   MINWARM   required cold/warm median latency ratio (default 5)
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${1:-serve-smoke}"
SCALE="${SCALE:-tiny}"
CLIENTS="${CLIENTS:-8}"
REQUESTS="${REQUESTS:-200}"
MINWARM="${MINWARM:-5}"

mkdir -p "$OUT"
SOCK="$OUT/ccrd.sock"
ADDR="unix:$SOCK"

go build -o "$OUT/ccrd" ./cmd/ccrd
go build -o "$OUT/ccrctl" ./cmd/ccrctl

rm -rf "$OUT/ccrd-spans"
"$OUT/ccrd" -addr "$ADDR" -manifest "$OUT/manifest.json" \
  -spans "$OUT/ccrd-spans" &
CCRD_PID=$!
trap 'kill -9 "$CCRD_PID" 2>/dev/null || true' EXIT

# Wait for the socket to accept: the client retries the connect itself.
"$OUT/ccrctl" ping -addr "$ADDR" -connect-timeout 10s

# One cell, then the same cell again — the daemon must answer both.
"$OUT/ccrctl" simulate -addr "$ADDR" -bench compress -scale "$SCALE" -digest \
  > "$OUT/simulate.json"
"$OUT/ccrctl" simulate -addr "$ADDR" -bench compress -scale "$SCALE" -digest \
  > "$OUT/simulate-warm.json"

# Streaming batch across several benchmarks.
cat > "$OUT/cells.json" <<EOF
[
  {"bench": "compress", "scale": "$SCALE"},
  {"bench": "compress", "scale": "$SCALE", "base": true},
  {"bench": "lex", "scale": "$SCALE"},
  {"bench": "m88ksim", "scale": "$SCALE", "dataset": "ref"},
  {"bench": "vortex", "scale": "$SCALE", "crb": {"entries": 32, "instances": 4}}
]
EOF
"$OUT/ccrctl" batch -addr "$ADDR" -cells "$OUT/cells.json" \
  -stream -heartbeat 20 > "$OUT/batch.json"

# Live status over the wire: request counts and per-scheme reuse totals.
"$OUT/ccrctl" status -addr "$ADDR" -json > "$OUT/status.json"

# The transparency sweep through the daemon (exit 1 on any failing point).
"$OUT/ccrctl" verify -addr "$ADDR" -scale "$SCALE" > "$OUT/verify.json"

# Load test with the BENCH_serve gates (warm speedup, zero errors, cache
# hit rate); the record is the uploadable artifact.
"$OUT/ccrctl" bench -addr "$ADDR" -scale "$SCALE" \
  -clients "$CLIENTS" -requests "$REQUESTS" \
  -check -minwarm "$MINWARM" -out "$OUT/BENCH_serve.json" \
  -commit "$(git rev-parse --short HEAD 2>/dev/null || echo unknown)" \
  -note "serve_smoke.sh ($SCALE scale)"

# Graceful drain: SIGTERM, then the process must exit 0 by itself and
# leave a flushed manifest behind.
kill -TERM "$CCRD_PID"
DRAIN_STATUS=0
wait "$CCRD_PID" || DRAIN_STATUS=$?
if [[ "$DRAIN_STATUS" -ne 0 ]]; then
  echo "serve_smoke: ccrd exited $DRAIN_STATUS after SIGTERM" >&2
  exit 1
fi
trap - EXIT

python3 - "$OUT" <<'PY'
import json, sys, os
out = sys.argv[1]
cold = json.load(open(os.path.join(out, "simulate.json")))
warm = json.load(open(os.path.join(out, "simulate-warm.json")))
assert cold["result"] == warm["result"], "warm result diverged from cold"
assert cold["digest"] == warm["digest"], "warm digest diverged from cold"
batch = json.load(open(os.path.join(out, "batch.json")))
assert batch["failed"] == 0 and len(batch["results"]) == 5
status = json.load(open(os.path.join(out, "status.json")))
assert status["requests"].get("batch", 0) >= 1, status["requests"]
assert status["reuse"], "status has no reuse totals"
# The daemon's span log (flushed on drain) recorded the batch serve.
spans = []
for name in os.listdir(os.path.join(out, "ccrd-spans")):
    for line in open(os.path.join(out, "ccrd-spans", name)):
        if line.strip():
            spans.append(json.loads(line))
assert any(s["cell"] == "batch" and s["phase"] == "serve" for s in spans), \
    "no batch serve span in the ccrd span log"
verify = json.load(open(os.path.join(out, "verify.json")))
assert verify["checked"] > 0 and not verify.get("rows")
bench = json.load(open(os.path.join(out, "BENCH_serve.json")))
assert bench["report"]["errors"] == 0
manifest = json.load(open(os.path.join(out, "manifest.json")))
assert manifest["version"]["module"] == "ccr"
assert manifest["caches"], "drained manifest has no cache stats"
print("serve smoke OK: %d verify points, warm speedup %.1fx" %
      (verify["checked"], bench["report"]["warm_speedup"]))
PY
