#!/usr/bin/env bash
# Local CI: build the Release and sanitizer presets and run the full test
# suite under each.  Usage: ./ci.sh [extra ctest args]
set -euo pipefail
cd "$(dirname "$0")"

JOBS=$(nproc 2>/dev/null || echo 4)

# Tests carry ctest labels (tier1 / slow / chaos — see tests/CMakeLists.txt).
# The tier-1 pass is the fast merge gate; the labelled tiers run after it so
# a chaos or slow failure never hides a unit-test failure.
run_preset() {
  local dir=$1
  shift
  cmake -B "$dir" -S . "$@" >/dev/null
  cmake --build "$dir" -j "$JOBS"
  ctest --test-dir "$dir" --output-on-failure -j "$JOBS" -L tier1 \
    ${CTEST_ARGS[@]+"${CTEST_ARGS[@]}"}
  ctest --test-dir "$dir" --output-on-failure -j "$JOBS" -L "chaos|slow" \
    ${CTEST_ARGS[@]+"${CTEST_ARGS[@]}"}
}

CTEST_ARGS=("$@")

# CPA_WERROR stays off: GCC 12's -O3 -Werror=restrict false-positives on
# std::string concatenation in pre-existing tests.
echo "== Release =="
run_preset build-release -DCMAKE_BUILD_TYPE=Release

# The repository benchmark's own tests: they build perfbench from these
# sources and run each workload briefly, so the doctored-output checks and
# the seed-2009 equality between fig10_campaign and
# bench_fig10_datarate_per_job gate every change, not only benchmark ones.
echo "== perfbench self-tests =="
python3 -m unittest discover -s perfbench/tests

echo "== ASan+UBSan =="
run_preset build-asan -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCPA_SANITIZE=address,undefined

# Differential oracle, explicitly and at full depth, under the sanitizer
# build: 24 seeds x 4500 randomized flow-network mutations plus one
# slot-recycling-heavy run, each mutation checked bit-for-bit against the
# from-scratch water-filling reference (the full ctest pass above already
# ran it once; this run is the gate that fails loudly on any rate
# divergence).
echo "== Flow-scheduler differential oracle (ASan) =="
./build-asan/tests/simcore_test \
  --gtest_filter='RandomChurn/FlowOracle.*:FlowOracleRecycling.*'

# Churn-throughput smoke (Release build: this one is a perf measurement).
# The bench cross-checks incremental vs reference rates at every checkpoint
# and exits non-zero on divergence.
echo "== bench_flow_churn smoke (Release) =="
./build-release/bench/bench_flow_churn --smoke --json=build-release/BENCH_flow_churn.json

# Fault-matrix smoke (under the sanitizer build): each canned plan injects
# a different failure class against a live pfcp + migration; the bench
# exits non-zero if any file is left unrecovered.
echo "== Fault matrix (ASan) =="
FAULT_PLANS=(
  "cluster.node[1]:fail@t=45s,repair=120s;cluster.node[2]:fail@t=60s,repair=120s"
  "tape.drive[0]:fail@t=30s,repair=180s;tape.drive[1]:fail@t=60s,repair=180s"
  "hsm.server[0]:restart@t=100s,outage=45s;net.pool[trunk0]:degrade@t=20s,factor=0.25,repair=60s"
)
for plan in "${FAULT_PLANS[@]}"; do
  echo "-- plan: $plan"
  ./build-asan/bench/bench_restart_transfer --fault="$plan"
done

# Scrub smoke (under the sanitizer build): inject silent corruptions and
# walk the whole repair lattice — every one must be detected, repaired
# from the copy pool / premigrated disk data where a clean source exists,
# and reported unrepairable exactly once where none does.  The bench
# exits non-zero if any injected corruption goes undetected.
echo "== Scrub smoke (ASan) =="
./build-asan/bench/bench_scrub --smoke --json=build-asan/BENCH_scrub.json

# Fair-share smoke (under the sanitizer build): a bulk recall storm vs
# staggered interactive restores, FIFO vs the admission scheduler.  The
# bench exits non-zero if interactive p99 isolation drops below 5x, a job
# starves past the aging bound, or the profiler's conservation invariant
# breaks with the admission-wait bucket in play.
echo "== Fair-share smoke (ASan) =="
./build-asan/bench/bench_fairshare --smoke --json=build-asan/BENCH_fairshare.json

# Recovery smoke (under the sanitizer build): drive a redo-logged metadata
# plant through a mutation history, power-fail it, and replay.  The bench
# exits non-zero if any durably-acked object is missing after recovery or
# checkpointed recovery is not faster than full replay at max history.
echo "== Recovery smoke (ASan) =="
./build-asan/bench/bench_recovery --smoke --json=build-asan/BENCH_recovery.json

# Metadata-batching smoke (under the sanitizer build): the group-commit
# txn storm and the synchronous-delete sweep, batched (B=16, W=4) vs one
# round-trip per mutation (B=1), over 1..8 servers.  The bench exits
# non-zero if the one-server B=1 storm does not cost exactly
# txns x metadata_txn_cost, or if the one-server storm speeds up by less
# than the 5x acceptance bar.
echo "== Metadata-batching smoke (ASan) =="
./build-asan/bench/bench_md_batch --smoke --json=build-asan/BENCH_md_batch.json

# Chaos smoke (under the sanitizer build): the deterministic simulation
# harness replays the checked-in seed corpus (one seed per past bug class,
# ops pinned in the file), then sweeps a handful of fresh seeds at a
# bounded op count — CPA_CHECK_OPS scales the sweep depth for bigger
# machines.  On any invariant violation cpa_check prints the violation and
# a copy-pasteable `cpa_check --seed=... --shrink` repro line and exits
# non-zero.  The two --doctor self-tests prove the oracles and the
# shrinker still catch a planted bug (a silently rotted segment, a dropped
# fixity row) — a gate that cannot fail is not a gate.
echo "== Chaos smoke (ASan) =="
CHAOS_OPS="${CPA_CHECK_OPS:-150}"
./build-asan/bench/cpa_check --corpus=tests/check/seed_corpus.txt
CPA_CHECK_OPS="$CHAOS_OPS" ./build-asan/bench/cpa_check --seed=1 --seeds=4
./build-asan/bench/cpa_check --seed=11 --ops=120 --doctor=scrub
./build-asan/bench/cpa_check --seed=11 --ops=120 --doctor=fixity

# Crash matrix (under the sanitizer build): the same chaos campaigns with
# whole-archive power failures mixed into the op stream — every metadata
# mutation rides the WAL, each crash-restart op tears the un-fsynced tail
# at an op-derived seed and replays recovery, and each seed additionally
# runs the quiescent metamorphic gate (drained plant + crash + recover
# must equal the never-crashed state digest).  Zero invariant violations
# required; durably-acked files must restore byte-exact after recovery.
echo "== Crash matrix (ASan) =="
./build-asan/bench/cpa_check --seed=1 --seeds=20 --ops="$CHAOS_OPS" --crashes

# The same crash matrix with metadata batching on: power failures now land
# on in-flight group-committed batches, which must tear away whole (no
# partial batch in the recovered catalog, no leaked completion callbacks).
echo "== Crash matrix, batched metadata (ASan) =="
./build-asan/bench/cpa_check --seed=1 --seeds=20 --ops="$CHAOS_OPS" --crashes --md-batch=8

# Attribution-conservation gate (under the sanitizer build): run the
# causal critical-path profiler over the fig10 campaign and require that
# every job's bucket decomposition sums exactly, in virtual ticks, to its
# wall-clock.  pfprof exits non-zero on any violation — a dropped or
# double-counted handoff in the span DAG fails CI here.
echo "== pfprof conservation gate (ASan) =="
./build-asan/bench/pfprof --campaign --scale=0.01 --seed=2009 --out=/dev/null

# Thread-sanitizer gate for the real-I/O engine: pftool::rt is the one
# layer that runs OS threads (worker pool, work queue, restart journal).
# Only its test binary is built under TSan; any data race report fails CI.
echo "== pftool rt (TSan) =="
cmake -B build-tsan -S . -DCPA_SANITIZE=thread >/dev/null
cmake --build build-tsan -j "$JOBS" --target pftool_test
TSAN_OPTIONS=halt_on_error=1 ./build-tsan/tests/pftool_test \
  --gtest_filter='RtEngine*:RestartJournal*:JournalProperty*:WorkQueue*'

# Perf-regression gate: diff each freshly produced BENCH_*.json against its
# checked-in baseline.  Every column declares its own clock in the file
# (bench::JsonTable), so bench_regress gates virtual columns exactly and
# host columns against a collapse; its self-tests run in ctest
# (bench_regress_test).  CPA_UPDATE_BASELINE=1 regenerates the baselines
# instead of gating (mirroring CPA_UPDATE_GOLDEN for the campaign digest).
echo "== bench regression gate =="
BASELINES=bench/baselines
GATED=(  # bench, build dir whose smoke run above wrote its JSON
  "flow_churn build-release"
  "scrub build-asan"
  "fairshare build-asan"
  "recovery build-asan"
  "md_batch build-asan"
)
for entry in "${GATED[@]}"; do
  read -r bench dir <<<"$entry"
  if [[ "${CPA_UPDATE_BASELINE:-0}" == "1" ]]; then
    cp "$dir/BENCH_$bench.json" "$BASELINES/BENCH_$bench.json"
    echo "re-pinned $BASELINES/BENCH_$bench.json"
  else
    ./build-release/bench/bench_regress \
      --baseline="$BASELINES/BENCH_$bench.json" --fresh="$dir/BENCH_$bench.json"
  fi
done

echo "CI passed."
