#!/usr/bin/env bash
#===- scripts/bench.sh - Run the bench suites, emit BENCH_satm.json ------===#
#
# Part of the SATM project, reproducing Shpeisman et al., PLDI 2007.
#
# Full mode (default) runs bench/perf_suite (micro benchmarks),
# bench/kv_service --suite (the SATM-KV service with closed- and open-loop
# load) at their fixed full sizes, and the loopback wire stage — a
# bench/kv_server instance driven by bench/kv_loadgen over real TCP
# sockets: an open-loop Poisson sweep for the SLO-capacity verdict
# (queue mode), then a shed-mode server held at 2x the measured capacity
# to show overload control keeping the tail bounded. The three JSONs are
# merged into BENCH_satm.json at the repo root — the checked-in,
# machine-readable perf trajectory. The human-readable tables are
# mirrored into BENCH_satm.raw.txt, a scratch file that stays untracked.
#
# --smoke runs the tiny configurations CI uses (also exercised under the
# bench-smoke CTest label in both the plain and TSan builds); its merged
# JSON goes to build scratch so a smoke run can never clobber the checked-in
# baseline.
#
# Usage: scripts/bench.sh [--smoke] [jobs]
#
#===----------------------------------------------------------------------===#

set -euo pipefail

cd "$(dirname "$0")/.."
MODE=full
JOBS="$(nproc)"
for ARG in "$@"; do
  case "$ARG" in
    --smoke) MODE=smoke ;;
    '' | *[!0-9]*)
      echo "usage: scripts/bench.sh [--smoke] [jobs]" >&2
      exit 2
      ;;
    *) JOBS="$ARG" ;;
  esac
done

cmake -B build -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build build -j "$JOBS" --target perf_suite kv_service kv_server \
  kv_loadgen

# Concatenates the benchmarks arrays of same-mode bench JSONs.
merge_json() { # in1.json in2.json [in3.json ...] out.json
  python3 - "$@" <<'EOF'
import json, sys
ins, out = sys.argv[1:-1], sys.argv[-1]
docs = []
for p in ins:
    with open(p) as f:
        docs.append(json.load(f))
a = docs[0]
for b in docs[1:]:
    assert a["schema"] == b["schema"], (a["schema"], b["schema"])
    assert a["mode"] == b["mode"], (a["mode"], b["mode"])
    a["benchmarks"] += b["benchmarks"]
with open(out, "w") as f:
    json.dump(a, f, indent=2)
    f.write("\n")
print(f"merged {' + '.join(ins)} -> {out} ({len(a['benchmarks'])} benchmarks)")
EOF
}

if [ "$MODE" = smoke ]; then
  ./build/bench/perf_suite --smoke --json=build/BENCH_micro_smoke.json
  ./build/bench/kv_service --smoke --json=build/BENCH_kv_smoke.json
  # Wire smoke: one short open-loop point over loopback, enough to prove
  # the serve/loadgen handshake and the net JSON block end-to-end.
  scripts/net_stage.sh build/bench build/net_port_smoke \
      --io-threads=1 --keys=16384 -- \
    --qps=20000 --duration=1 --conns=2 --keys=16384 --seed=2026 \
    --mode=smoke --json=build/BENCH_net_smoke.json
  merge_json build/BENCH_micro_smoke.json build/BENCH_kv_smoke.json \
    build/BENCH_net_smoke.json build/BENCH_smoke.json
  echo "== bench smoke OK (build/BENCH_smoke.json)"
else
  ./build/bench/perf_suite --json=build/BENCH_micro.json | tee BENCH_satm.raw.txt
  ./build/bench/kv_service --suite --json=build/BENCH_kv.json | tee -a BENCH_satm.raw.txt

  echo "== net stage 1/2: open-loop capacity sweep (queue mode)" | tee -a BENCH_satm.raw.txt
  scripts/net_stage.sh build/bench build/net_port --io-threads=2 -- \
    --sweep=25000:400000:7 --duration=3 --conns=4 --seed=2026 \
    --json=build/BENCH_net_queue.json 2>&1 | tee -a BENCH_satm.raw.txt

  # The shed server must answer overload with Overloaded/DeadlineExceeded
  # frames instead of letting queueing delay take the tail to infinity.
  # Two points: 2x the sweep's SLO-capacity verdict (the acceptance bar),
  # and the sweep's top rate — where queue mode's p99.9 explodes — so the
  # shed-vs-queue tail contrast is measured at the same offered load.
  CAPACITY=$(python3 -c '
import json
doc = json.load(open("build/BENCH_net_queue.json"))
print(int(doc["benchmarks"][0]["net"]["slo_capacity"]))')
  if [ "$CAPACITY" -le 0 ]; then
    # A noisy box can miss the SLO at every sweep point (on 1 vCPU the
    # p99 rides scheduling jitter). The shed-vs-queue contrast still
    # needs an overload point: shed at the sweep's top rate instead.
    echo "== slo_capacity 0 (no sweep point met the SLO): shedding at the sweep top" | tee -a BENCH_satm.raw.txt
    SHED_LOAD="--qps=400000"
  elif [ $((2 * CAPACITY)) -lt 400000 ]; then
    SHED_LOAD="--sweep=$((2 * CAPACITY)):400000:2"
  else
    SHED_LOAD="--qps=$((2 * CAPACITY))"
  fi
  echo "== net stage 2/2: shed mode at 2x capacity (${CAPACITY} qps x 2) + sweep top" | tee -a BENCH_satm.raw.txt
  scripts/net_stage.sh build/bench build/net_port --io-threads=2 \
      --overload=shed --deadline-us=2000 --retry-budget=4 -- \
    "$SHED_LOAD" --duration=5 --conns=4 --seed=2026 \
    --tag=shed --json=build/BENCH_net_shed.json 2>&1 | tee -a BENCH_satm.raw.txt

  merge_json build/BENCH_micro.json build/BENCH_kv.json \
    build/BENCH_net_queue.json build/BENCH_net_shed.json BENCH_satm.json
  echo "== wrote BENCH_satm.json"
fi
