#!/usr/bin/env bash
# fabric_smoke.sh — end-to-end crash drill of the resumable sweep fabric:
# run a serial reference sweep at -jobs 1, then the same sweep at -jobs 2
# over a persistent artifact store SIGKILLed mid-flight
# (-fabric-die-after), resume it, and require digests.json byte-identical
# to the reference. A third run over the warm store in a fresh state dir
# must be mostly store hits and faster than the cold run. A fourth run
# records span logs and is itself killed and resumed; it must still match
# the reference, and `ccrviz timeline` must merge the two coordinator
# incarnations' logs into valid Chrome trace JSON with exactly-once
# commit coverage of the journal.
#
# Usage:
#   scripts/fabric_smoke.sh [outdir]
#
# Environment:
#   SCALE      workload scale (default tiny)
#   BENCHES    comma-separated benchmark subset (default compress,lex)
#   DIE_AFTER  journaled cells before the crash drill SIGKILLs (default 8)
#   MINHITS    required store hit rate on the warm run (default 0.9)
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${1:-fabric-smoke}"
SCALE="${SCALE:-tiny}"
BENCHES="${BENCHES:-compress,lex}"
DIE_AFTER="${DIE_AFTER:-8}"
MINHITS="${MINHITS:-0.9}"

rm -rf "$OUT"
mkdir -p "$OUT"

go build -o "$OUT/ccrpaper" ./cmd/ccrpaper
go build -o "$OUT/ccrviz" ./cmd/ccrviz

run() { # run <state-dir> <extra flags...>
  local dir="$1"; shift
  "$OUT/ccrpaper" -scale "$SCALE" -fabric "$dir" -fabric-benches "$BENCHES" "$@"
}

crash() { # crash <state-dir> <extra flags...>: a run that must SIGKILL itself
  local dir="$1"; shift
  local status=0
  run "$dir" -fabric-die-after "$DIE_AFTER" "$@" || status=$?
  if [[ "$status" -ne 137 ]]; then
    echo "fabric_smoke: crash drill exited $status, want 137 (SIGKILL)" >&2
    exit 1
  fi
  if [[ -f "$dir/digests.json" ]]; then
    echo "fabric_smoke: killed sweep left a digests.json — died too late" >&2
    exit 1
  fi
}

# 1. Serial reference: one cell at a time, no store. This digests.json is
#    the byte-identity target every other mode must hit.
echo "fabric_smoke: serial reference sweep"
run "$OUT/serial" -jobs 1

# 2. Crash drill: two cells at a time + store, SIGKILL self after
#    DIE_AFTER journaled cells. The process must die by signal (exit 137),
#    not exit cleanly.
echo "fabric_smoke: cold parallel sweep, SIGKILL after $DIE_AFTER cells"
crash "$OUT/sweep" -jobs 2 -store "$OUT/store"

# 3. Resume over the same journal and store: completed cells are skipped,
#    the rest computed, and the digests must byte-match the reference.
echo "fabric_smoke: resuming killed sweep"
run "$OUT/sweep" -jobs 2 -store "$OUT/store"
cmp "$OUT/serial/digests.json" "$OUT/sweep/digests.json" || {
  echo "fabric_smoke: resumed digests diverged from serial reference" >&2
  exit 1
}

# 4. Warm rerun: fresh state dir, same store. Everything should be a store
#    hit, and the wall time must beat the (killed) cold run's full sweep.
echo "fabric_smoke: warm rerun over the populated store"
run "$OUT/warm" -jobs 2 -store "$OUT/store"
cmp "$OUT/serial/digests.json" "$OUT/warm/digests.json" || {
  echo "fabric_smoke: warm digests diverged from serial reference" >&2
  exit 1
}

# 5. Span-recording sweep, killed and resumed -> one merged timeline over
#    both coordinator incarnations. Spans must not change a digest.
echo "fabric_smoke: span-recording sweep, SIGKILL after $DIE_AFTER cells, resumed"
crash "$OUT/spans" -jobs 2 -fabric-spans
run "$OUT/spans" -jobs 2 -fabric-spans
cmp "$OUT/serial/digests.json" "$OUT/spans/digests.json" || {
  echo "fabric_smoke: span-recording digests diverged from serial reference" >&2
  exit 1
}
"$OUT/ccrviz" timeline -dir "$OUT/spans/spans" \
  -journal "$OUT/spans/journal.jsonl" -o "$OUT/timeline.json"

python3 - "$OUT" "$MINHITS" <<'PY'
import json, sys, os
out, minhits = sys.argv[1], float(sys.argv[2])
resumed = json.load(open(os.path.join(out, "sweep", "manifest.json")))
warm = json.load(open(os.path.join(out, "warm", "manifest.json")))
serial = json.load(open(os.path.join(out, "serial", "manifest.json")))

# The resume skipped the journaled cells and computed only the remainder.
assert resumed["resumed"] > 0, "resume skipped nothing — journal not used"
assert resumed["resumed"] + resumed["computed"] == resumed["cells"], resumed
assert not resumed.get("failed"), resumed["failed"]

# The warm run recomputed every cell but fed them from the store.
st = warm["store"]
rate = warm.get("store_hit_rate", 0.0)
assert st["puts"] == 0, "warm run wrote %d store entries" % st["puts"]
assert rate >= minhits, "warm store hit rate %.2f < %.2f" % (rate, minhits)
assert warm["wall_seconds"] < serial["wall_seconds"], \
    "warm run (%.2fs) not faster than cold serial (%.2fs)" % (
        warm["wall_seconds"], serial["wall_seconds"])

# The merged timeline is valid Chrome trace JSON with exactly-once commit
# coverage (ccrviz already validated; re-check independently).
tl = json.load(open(os.path.join(out, "timeline.json")))
assert tl["traceEvents"], "empty timeline"
commits = [e for e in tl["traceEvents"]
           if e.get("name") == "commit" and e.get("ph") == "X"]
cells = set(e["args"]["cell"] for e in commits)
assert len(commits) == len(cells) == tl["otherData"]["journal_cells"], \
    (len(commits), len(cells), tl["otherData"])
procs = tl["otherData"]["procs"]
assert procs >= 2, "timeline merged %d procs, want both coordinator incarnations" % procs
names = [e["args"]["name"] for e in tl["traceEvents"] if e.get("name") == "process_name"]
assert all(n.startswith("coord-") for n in names), names

print("fabric smoke OK: %d cells, resume skipped %d, warm hit rate %.2f, "
      "%.2fs warm vs %.2fs cold, timeline %d commits over %d procs" % (
          serial["cells"], resumed["resumed"], rate,
          warm["wall_seconds"], serial["wall_seconds"], len(commits), procs))
PY
