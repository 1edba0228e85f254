#!/usr/bin/env bash
# Full verification sweep: plain, AddressSanitizer (with UBSan), and
# ThreadSanitizer builds, each followed by the complete ctest suite. The
# sanitizer passes exist for the fault/retry stack in particular — the
# injector's counters and the scanner's circuit breaker are exercised from
# many worker threads, and tsan is the tool that proves those accesses
# race-free.
#
# Usage: tools/check.sh [jobs]
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${1:-$(nproc)}"

run_pass() {
  local name="$1" build_dir="$2" sanitize="$3"
  echo "=== ${name} build ==="
  cmake -B "${build_dir}" -S . -DENCDNS_SANITIZE="${sanitize}" >/dev/null
  cmake --build "${build_dir}" -j "${JOBS}"
  echo "=== ${name} ctest ==="
  (cd "${build_dir}" && ctest --output-on-failure -j "${JOBS}")
}

run_golden() {
  # The golden ctest suite already diffs experiment-by-experiment; this step
  # additionally proves the checked-in corpus is exactly what the current
  # binary writes (no stale, missing, or hand-edited snapshot survives).
  echo "=== golden snapshot sync ==="
  local tmp
  tmp="$(mktemp -d)"
  trap 'rm -rf "${tmp}"' RETURN
  ./build/tools/encdns_study --golden-dir "${tmp}" >/dev/null
  if ! diff -ru tests/golden/data "${tmp}"; then
    echo "golden corpus out of sync — run tools/regen_golden.sh" >&2
    return 1
  fi
  echo "tests/golden/data matches a fresh --golden-dir run."
}

run_cache_guard() {
  # bench_micro_cache replays the same Zipf mix against the retired
  # flush-on-full map and the sharded LRU cache; its exit status (and the
  # guard_met field of BENCH_cache.json) asserts the sharded cache sustains
  # a strictly higher steady-state hit rate. The micro loops are skipped —
  # only the comparison main() runs.
  echo "=== cache eviction guard ==="
  ./build/bench/bench_micro_cache --benchmark_filter=SKIP_ALL
  grep -q '"guard_met": true' BENCH_cache.json
  echo "sharded LRU beats flush-on-full (BENCH_cache.json)."
}

run_soak() {
  # The only coverage that executes StudyConfig::full() end to end: the
  # paper-scale suite is label-gated (plain ctest skips it) and env-gated
  # (the tests GTEST_SKIP without ENCDNS_SOAK), so this step turns both
  # keys at once.
  echo "=== paper-scale soak (ctest -L soak) ==="
  (cd build && ENCDNS_SOAK=1 ctest -L soak --output-on-failure)
}

run_throughput_guard() {
  # bench_macro_study re-runs the transports and every full-scale study
  # phase, then compares against the committed BENCH_throughput.json:
  # work-unit counts must match exactly (determinism), allocations/query
  # must stay within baseline*1.25+2, throughput above 0.25x baseline.
  echo "=== throughput guard ==="
  local tmp
  tmp="$(mktemp)"
  ./build/bench/bench_macro_study --scale full --out "${tmp}" \
    --guard BENCH_throughput.json
  grep -q '"guard_met": true' "${tmp}"
  rm -f "${tmp}"
  echo "throughput and allocation budgets hold vs BENCH_throughput.json."
}

run_chaos() {
  # The DESIGN.md §13 resume contract, proven the hard way: a reference run
  # at 2 threads, then a checkpointed run SIGKILLed at three different
  # journal commits (via ENCDNS_CHECKPOINT_KILL_AFTER) and resumed each time
  # at a different thread count. The survivor's golden corpus and stable obs
  # JSON must be byte-identical to the reference.
  echo "=== checkpoint kill/resume chaos ==="
  local tmp
  tmp="$(mktemp -d)"
  trap 'rm -rf "${tmp}"' RETURN
  ENCDNS_THREADS=2 ./build/tools/encdns_study \
    --golden-dir "${tmp}/ref" --obs-json "${tmp}/ref.json" >/dev/null

  # Kill counters are per process, so each resume gets a fresh count; the
  # three points land in different phases of the journal's commit sequence.
  local kill_points=(3 10 7) threads=(2 8 4) i rc
  for i in 0 1 2; do
    rc=0
    ENCDNS_THREADS="${threads[$i]}" \
      ENCDNS_CHECKPOINT_KILL_AFTER="${kill_points[$i]}" \
      ./build/tools/encdns_study --checkpoint-dir "${tmp}/ckpt" \
      $([ "$i" -gt 0 ] && echo --resume) \
      --golden-dir "${tmp}/out" --obs-json "${tmp}/out.json" \
      >/dev/null 2>&1 || rc=$?
    if [ "${rc}" -ne 137 ]; then
      echo "chaos: expected SIGKILL (137) at commit ${kill_points[$i]}, got ${rc}" >&2
      return 1
    fi
  done
  ENCDNS_THREADS=1 ./build/tools/encdns_study \
    --checkpoint-dir "${tmp}/ckpt" --resume \
    --golden-dir "${tmp}/out" --obs-json "${tmp}/out.json" >/dev/null
  diff -r "${tmp}/ref" "${tmp}/out"
  cmp "${tmp}/ref.json" "${tmp}/out.json"
  echo "kill+resume runs are byte-identical to the uninterrupted reference."
}

run_dag_guard() {
  # DESIGN.md §15: the task graph's thread count must be invisible in the
  # output. A one-thread run writes the reference golden corpus and stable
  # obs JSON; runs at 2 and 8 threads must reproduce both byte for byte.
  # bench_macro_study --dag-guard re-checks the report identity in-process
  # and holds the critical-path wall-clock floor on multi-core machines.
  # Finally a checkpointed run is SIGKILLed mid-flight — overlapping phases
  # and all — and resumed at a different thread count; the survivor must
  # still match the one-thread reference.
  echo "=== task-graph schedule guard ==="
  local tmp
  tmp="$(mktemp -d)"
  trap 'rm -rf "${tmp}"' RETURN
  ENCDNS_THREADS=1 ./build/tools/encdns_study \
    --golden-dir "${tmp}/ref" --obs-json "${tmp}/ref.json" >/dev/null

  local t
  for t in 2 8; do
    ENCDNS_THREADS="${t}" ./build/tools/encdns_study \
      --golden-dir "${tmp}/dag" --obs-json "${tmp}/dag.json" >/dev/null
    diff -r "${tmp}/ref" "${tmp}/dag"
    cmp "${tmp}/ref.json" "${tmp}/dag.json"
    rm -rf "${tmp}/dag" "${tmp}/dag.json"
  done

  ./build/bench/bench_macro_study --dag-guard

  local rc=0
  ENCDNS_THREADS=2 ENCDNS_CHECKPOINT_KILL_AFTER=5 \
    ./build/tools/encdns_study --checkpoint-dir "${tmp}/ckpt" \
    --golden-dir "${tmp}/out" --obs-json "${tmp}/out.json" >/dev/null 2>&1 || rc=$?
  if [ "${rc}" -ne 137 ]; then
    echo "dag-guard: expected SIGKILL (137) at commit 5, got ${rc}" >&2
    return 1
  fi
  ENCDNS_THREADS=8 ./build/tools/encdns_study \
    --checkpoint-dir "${tmp}/ckpt" --resume \
    --golden-dir "${tmp}/out" --obs-json "${tmp}/out.json" >/dev/null
  diff -r "${tmp}/ref" "${tmp}/out"
  cmp "${tmp}/ref.json" "${tmp}/out.json"
  echo "task-graph runs match the one-thread reference, including kill/resume."
}

run_checkpoint_guard() {
  # Journaling must not perturb the phase and must keep at least a third of
  # the checkpoint-off throughput (quick scale is its worst case — see
  # bench_macro_study.cpp for the bound's rationale). Reopening the journal
  # it wrote must take at most twice a raw read plus one FNV-1a pass, and the
  # journal must stay within 1.5x its final cursor re-encoded whole.
  echo "=== checkpoint overhead guard ==="
  local tmp
  tmp="$(mktemp -d)"
  trap 'rm -rf "${tmp}"' RETURN
  ./build/bench/bench_macro_study --checkpoint-guard "${tmp}/ckpt"
  echo "checkpointed reachability, its resume and its journal size stay within budget."
}

run_scan_guard() {
  # One full 853 sweep per SweepMode on one thread, best of three runs on
  # fault-free worlds: the open sets must agree exactly (fault-free verdicts
  # are rng-independent) and the stateless engine's blocked transmit kernel
  # must clear 2.3x the legacy sweep's throughput — the lowest of forty
  # measured ratios (2.84x; medians 3.54-3.75x, DESIGN.md §14) less 20%, so
  # machine load alone does not trip it and losing a fifth of that lead fails.
  echo "=== stateless scan engine guard ==="
  ./build/bench/bench_macro_study --scan-guard
  echo "stateless sweep matches legacy and holds the 2.3x floor."
}

run_netflow_guard() {
  # The DESIGN.md §16 streaming trend pipeline: a full-scale multi-year run
  # must clear 100x the §5.2 sampled corpus under fixed memory (tracked
  # live state < 64 MiB, resident-set delta < 256 MiB), the HLL sketches
  # must track exact client counts within 3 sigma at validation scale, and
  # the flow count and flows/s are held against BENCH_netflow.json.
  echo "=== netflow trend pipeline guard ==="
  local tmp
  tmp="$(mktemp)"
  ./build/bench/bench_macro_study --netflow-guard BENCH_netflow.json \
    --out "${tmp}"
  grep -q '"guard_met": true' "${tmp}"
  rm -f "${tmp}"
  echo "trend pipeline holds its memory, accuracy and throughput floors."
}

run_pass "plain" build ""
run_golden
run_cache_guard
run_chaos
run_dag_guard
run_checkpoint_guard
run_scan_guard
run_netflow_guard
run_soak
run_throughput_guard
run_pass "asan" build-asan address
run_pass "tsan" build-tsan thread

echo "All check passes succeeded."
