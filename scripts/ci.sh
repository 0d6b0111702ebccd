#!/usr/bin/env bash
#===- scripts/ci.sh - Tier-1 CI: plain + ThreadSanitizer + ASan/UBSan ---===#
#
# Part of the SATM project, reproducing Shpeisman et al., PLDI 2007.
#
# Builds and runs the full test suite three times: a regular RelWithDebInfo
# build, a ThreadSanitizer build (-DSATM_SANITIZE=thread), and an
# AddressSanitizer + UndefinedBehaviorSanitizer build
# (-DSATM_SANITIZE=address,undefined). SATM_FAST_TESTS=1 trims the
# iteration-heavy stress tests so the whole script stays short.
#
# Usage: scripts/ci.sh [jobs]
#
#===----------------------------------------------------------------------===#

set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${1:-$(nproc)}"
export SATM_FAST_TESTS="${SATM_FAST_TESTS:-1}"

echo "== tier-1 build (RelWithDebInfo)"
cmake -B build -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build build -j "$JOBS"
(cd build && ctest --output-on-failure -j "$JOBS")

echo "== bench smoke (perf_suite + kv_service + loopback wire, merged)"
scripts/bench.sh --smoke "$JOBS"
scripts/check_bench_schema.sh --require-kv \
  --require-durability --require-net build/BENCH_smoke.json BENCH_satm.json

echo "== bench smoke with event tracing armed (SATM_TRACE=1)"
SATM_TRACE=1 SATM_STATS=1 ./build/bench/perf_suite --smoke \
  --json=build/BENCH_smoke_trace.json
scripts/check_bench_schema.sh build/BENCH_smoke_trace.json
SATM_TRACE=1 SATM_STATS=1 ./build/bench/kv_service --smoke \
  --json=build/BENCH_kv_smoke_trace.json
scripts/check_bench_schema.sh --require-kv \
  --require-durability build/BENCH_kv_smoke_trace.json

echo "== snapshot plane lane (ctest -L snapshot, plain + tracing armed)"
(cd build && ctest --output-on-failure -j "$JOBS" -L snapshot)
(cd build && SATM_TRACE=1 SATM_STATS=1 ctest --output-on-failure -j "$JOBS" \
  -L snapshot)

echo "== snapshot fault lane (delay/stall sites only)"
# Read-only snapshots are wait-free and must stay *exactly* zero-abort, so
# these tests assert exact counters — which abort-injecting sites (txn_open,
# txn_commit, heap_alloc) would clobber with spurious retries. Injecting
# only the delay sites keeps the counters exact while widening the races
# the churn/publish paths run through. The explorer test is excluded: its
# golden replay tokens depend on deterministic event streams.
(cd build && \
  SATM_FAULTS="seed=11,barrier_delay=0.01:800,quiesce_stall=0.05:400" \
  ctest --output-on-failure -j "$JOBS" \
  -R "snapshot_txn_test|kv_snapshot_store_test")

echo "== fault-injection smoke lane (seeded SATM_FAULTS matrix)"
# A curated subset: concurrency-heavy tests whose assertions are about
# outcomes, not exact abort counts (injected spurious aborts add retries).
# The dedicated fault tests (fault_injector_test etc.) arm programmatically
# and run in the default lanes instead. kv_churn_flat_test checks that the
# reclamation identities (retired = recycled + pooled) survive injected
# aborts and re-executions.
FAULT_TESTS="barriers_test|lazy_txn_test|quiesce_test|workloads_test|kv_stress_test|kv_churn_flat_test"
for SPEC in \
  "seed=1,txn_open=0.02,txn_commit=0.02" \
  "seed=7,txn_open=0.05,lazy_open=0.05,lazy_commit=0.05" \
  "seed=42,barrier_delay=0.01:800,quiesce_stall=0.05:400"; do
  echo "-- SATM_FAULTS=$SPEC"
  (cd build && SATM_FAULTS="$SPEC" ctest --output-on-failure -j "$JOBS" \
    -R "$FAULT_TESTS")
done

echo "== net front-end fault lane (seeded short-read/short-write caps)"
# The net_read/net_write sites cap server-side socket syscalls to a few
# bytes, forcing the partial-frame decode and partial-flush resume paths
# under the full loopback matrix. Only the capping sites go in the env
# spec: net_accept drops whole connections, which the outcome assertions
# (every request answered) cannot absorb — the drop path has its own
# programmatic-arm test inside net_server_test. Args are explicit
# (":1"/":3") because arm() treats 0 as "use the default delay spins".
(cd build && SATM_FAULTS="seed=5,net_read=0.3:1,net_write=0.3:3" \
  ctest --output-on-failure -R "net_server_test")

echo "== durability crash/recovery lane (seeded kill-mode loop, full length)"
# The crash test arms SATM_FAULTS in its re-executed children itself, and
# the recovery tests manufacture their own log damage, so neither runs
# under the env-armed matrices above (parent-side faults would break the
# harness, not the plane). SATM_FAST_TESTS=0 forces the full 100-iteration
# kill loop here even when the rest of CI runs trimmed. The chaos-labeled
# network loop gets its own lane below.
(cd build && SATM_FAST_TESTS=0 ctest --output-on-failure -L durability \
  -LE chaos)

echo "== network chaos lane (kill-under-TCP-load loop, full length)"
# The full production stack — recovered store, background checkpointer,
# epoll server with sync acks — killed mid-load/mid-checkpoint/
# mid-recovery by rotated seeded sites, 100 chained iterations: no acked
# sync write lost, exact conservation, checkpoint-bounded replay. The
# enospc scenario inside the same binary proves a sealed log degrades
# service instead of aborting it.
(cd build && SATM_FAST_TESTS=0 ctest --output-on-failure -L chaos)

echo "== disk-fault degradation sub-lane (seeded log_enospc, live server)"
# Env-armed ENOSPC against the real kv_server process under
# kv_loadgen traffic: the WAL seals mid-run, sync acks turn into
# DurabilityLost (the loadgen counts them separately, they are not
# errors), reads keep flowing, and the server must still exit 0 at
# shutdown — the lane's assertion is that an injected disk fault never
# becomes an ioFatal abort. kv_loadgen inherits the spec but runs no
# WAL, so log_enospc never fires there. The 256-record checkpoint interval
# makes the checkpointer run against the sealed log within the 1 s run; the
# lane fails if the server reports no checkpoint written.
SATM_FAULTS="seed=23,log_enospc=0.02" scripts/net_stage.sh build/bench \
  build/net_port_enospc --keys=16384 --io-threads=1 \
  --durability=sync --checkpoint-interval=256 -- \
  --qps=5000 --duration=1 --conns=2 --keys=16384 --mode=smoke --retries=2 \
  --json=build/BENCH_net_enospc.json 2>&1 | tee build/net_enospc.log
scripts/check_bench_schema.sh --require-net build/BENCH_net_enospc.json
if ! grep -Eq "^kv_server: [1-9][0-9]* checkpoints written" \
    build/net_enospc.log; then
  echo "ci.sh: the disk-fault lane wrote no checkpoint" >&2
  exit 1
fi

echo "== ThreadSanitizer build"
cmake -B build-tsan -S . -DSATM_SANITIZE=thread
cmake --build build-tsan -j "$JOBS"
(cd build-tsan && ctest --output-on-failure -j "$JOBS")

echo "== TSan fault-injection smoke"
(cd build-tsan && \
  SATM_FAULTS="seed=7,txn_open=0.02,txn_commit=0.02,barrier_delay=0.01:800" \
  ctest --output-on-failure -j "$JOBS" -R "$FAULT_TESTS")

echo "== TSan durability crash/recovery lane (full kill loop)"
(cd build-tsan && SATM_FAST_TESTS=0 ctest --output-on-failure -L durability \
  -LE chaos)

echo "== TSan network chaos lane (full kill-under-TCP-load loop)"
(cd build-tsan && SATM_FAST_TESTS=0 ctest --output-on-failure -L chaos)

echo "== TSan net front-end fault lane"
(cd build-tsan && SATM_FAULTS="seed=5,net_read=0.3:1,net_write=0.3:3" \
  ctest --output-on-failure -R "net_server_test")

echo "== TSan loopback serve/loadgen smoke (real sockets end-to-end)"
scripts/net_stage.sh build-tsan/bench build-tsan/net_port_smoke \
  --keys=16384 --io-threads=1 -- \
  --qps=5000 --duration=1 --conns=2 --keys=16384 --mode=smoke \
  --json=build-tsan/BENCH_net_smoke.json
scripts/check_bench_schema.sh --require-net build-tsan/BENCH_net_smoke.json

echo "== TSan snapshot lane (tracing armed)"
(cd build-tsan && SATM_TRACE=1 SATM_STATS=1 ctest --output-on-failure \
  -j "$JOBS" -L snapshot)

echo "== TSan bench smoke with event tracing armed"
SATM_TRACE=1 SATM_STATS=1 ./build-tsan/bench/perf_suite --smoke \
  --json=build-tsan/BENCH_smoke_trace.json
scripts/check_bench_schema.sh build-tsan/BENCH_smoke_trace.json
SATM_TRACE=1 SATM_STATS=1 ./build-tsan/bench/kv_service --smoke \
  --json=build-tsan/BENCH_kv_smoke_trace.json
scripts/check_bench_schema.sh --require-kv \
  --require-durability build-tsan/BENCH_kv_smoke_trace.json

echo "== AddressSanitizer + UndefinedBehaviorSanitizer build"
# Connection lifetime on the server (a batch can still hold requests of a
# connection closed earlier in the same loop iteration) and the binary
# parsers are use-after-free / out-of-bounds territory that TSan does not
# check. Every UBSan finding is fatal (-fno-sanitize-recover=undefined).
cmake -B build-asan -S . -DSATM_SANITIZE=address,undefined
cmake --build build-asan -j "$JOBS"

echo "== ASan/UBSan whole suite"
(cd build-asan && ctest --output-on-failure -j "$JOBS")

echo "== CI green (plain + tsan + asan/ubsan, SATM_FAST_TESTS=$SATM_FAST_TESTS)"
