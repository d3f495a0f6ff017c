#!/usr/bin/env bash
# bench.sh — run the emulator benchmark suite and gate or record the
# results against BENCH_emu.json (see cmd/ccrbench and EXPERIMENTS.md).
#
# Usage:
#   scripts/bench.sh [check|update-current|update-baseline]
#
#   check            run the suite and gate against the committed record
#                    (regression gate vs "current", speedup + zero-alloc
#                    gate vs "baseline"); the default, used by CI
#   update-current   run the suite and rewrite the "current" section
#   update-baseline  run the suite and rewrite the "baseline" section
#                    (only meaningful on the pre-optimization engine, e.g.
#                    CCR_ENGINE=interp scripts/bench.sh update-baseline)
#
# Environment:
#   COUNT   repetitions per benchmark (default 6)
#   BENCH   benchmark regex (default: the fast emulator/CRB suite plus
#           the timing model, the oracle digest, the timed run that folds
#           the digest, and the compile pipeline, whose profiling run is
#           the compiler's costliest layer; the Figure*
#           end-to-end benchmarks take ~1s/op — opt in with
#           BENCH='Figure8a' etc.)
#   GATE    max ns/op regression vs "current", percent (default 25)
#   MINSPEEDUP  required MachineRun speedup vs "baseline" (default 1.5)
set -euo pipefail
cd "$(dirname "$0")/.."

MODE="${1:-check}"
COUNT="${COUNT:-6}"
BENCH="${BENCH:-MachineRun$|MachineRunCCR$|MachineRunDTM$|Emulator$|CRBLookup$|DTMLookup$|TelemetrySink$|CompilePipeline$|TimingSimulation$|DigestRun$|TimedDigestRun$}"
GATE="${GATE:-25}"
MINSPEEDUP="${MINSPEEDUP:-1.5}"

OUT="$(mktemp)"
trap 'rm -f "$OUT"' EXIT

go test -run '^$' -bench "$BENCH" -benchmem -count "$COUNT" . | tee "$OUT"

# benchstat (if installed) gives the statistically honest per-benchmark
# delta against the committed raw baseline capture; the ccrbench gate
# below never depends on it.
if command -v benchstat >/dev/null 2>&1 && [[ -f bench/baseline_emu.txt ]]; then
  benchstat bench/baseline_emu.txt "$OUT" || true
fi

case "$MODE" in
check)
  go run ./cmd/ccrbench -bench "$OUT" -check -gate "$GATE" -minspeedup "$MINSPEEDUP"
  ;;
update-current)
  # ccrbench stamps HEAD itself (and refuses to write an unstamped record).
  go run ./cmd/ccrbench -bench "$OUT" -update current \
    -note "${NOTE:-predecoded engine}"
  ;;
update-baseline)
  go run ./cmd/ccrbench -bench "$OUT" -update baseline \
    -note "${NOTE:-pre-predecode interpreter}"
  ;;
*)
  echo "bench.sh: unknown mode $MODE (want check|update-current|update-baseline)" >&2
  exit 2
  ;;
esac
