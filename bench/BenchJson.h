//===- bench/BenchJson.h - Shared satm-bench-v9 JSON emitter ---*- C++ -*-===//
//
// Part of the SATM project, reproducing Shpeisman et al., PLDI 2007.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one writer of the repo's machine-readable perf trajectory format,
/// shared by bench/perf_suite, bench/kv_service and bench/kv_loadgen so
/// the pieces of BENCH_satm.json cannot drift apart. Schema satm-bench-v9:
///
///   { "schema": "satm-bench-v9", "mode": "full"|"smoke",
///     "benchmarks": [
///       { "name", "ns_per_op", "ops", "commits", "aborts", "median_of",
///         "abort_reasons": { ...all nine taxonomy keys... },
///         // optional, service benchmarks only:
///         "throughput_ops_per_sec": N,
///         "latency_ns": {"p50": N, "p95": N, "p99": N, "p999": N},
///         "read_planes": {"snapshot": {"p50","p95","p99","p999","count"},
///                         "nt": {...}, "txn": {...}},
///         // optional, overload benchmarks only (implies latency):
///         "offered_ops_per_sec": N, "goodput_ops_per_sec": N,
///         "shed_rate": F,
///         // optional, durable benchmarks only:
///         "durability": {"mode": "async"|"sync", "fsync_batches": N,
///                        "records": N, "ring_stalls": N,
///                        "recovery_ms": F,
///                        // optional, checkpointed runs only:
///                        "checkpoint": {"interval_ops": N, "ckpt_ms": F,
///                                       "wal_truncated_bytes": N,
///                                       "recovery_ms": F}},
///         // optional, wire benchmarks only (bench/kv_loadgen):
///         "net": {"qps_offered": N, "goodput": N, "p99_ns": N,
///                 "slo_capacity": N, "shed_rate": F, "batch_avg": F} } ] }
///
/// v9 extends v8 with the checkpoint sub-block (DESIGN.md §14): durable
/// entries that ran with the background checkpointer report the trigger
/// interval (appended redo records between snapshots), total wall time
/// spent writing checkpoints, how many WAL bytes compaction reclaimed,
/// and the *bounded* recovery time — newest checkpoint load plus replay
/// of only the WAL suffix above its barrier LSN, which stays O(interval)
/// no matter how much total traffic the run carried (the
/// kv/durable/ckpt_recover_{1x,10x} pair is the measured contrast).
/// v8 extends v7 with the wire dimension (DESIGN.md §13): net/* entries
/// are measured over real TCP sockets by the open-loop load generator —
/// qps_offered is the Poisson arrival rate, goodput the rate of requests
/// answered Ok/NotFound/Mismatch within the point's window, p99_ns the
/// 99th-percentile latency from *scheduled arrival* to response receipt,
/// slo_capacity the sweep's TailBench-style capacity verdict (the
/// highest offered rate whose p99 met the SLO with shed_rate ≤ 1%,
/// stamped on every point of the sweep), shed_rate the fraction of
/// requests answered Overloaded/DeadlineExceeded, and batch_avg the
/// server-side requests-per-amortizing-transaction over the window
/// (from STATS counter deltas; > 1 means per-shard batching engaged).
/// v7 extends v6 with the durability dimension (DESIGN.md §12): entries
/// that ran with a write-ahead redo log attached report the ack mode,
/// how many group-commit fsync batches the drainer issued, how many redo
/// records it persisted, how often producers stalled on a full ring, and
/// how long a fresh store took to replay the run's entire log
/// (the recovery-time benchmark). v6 added an executor dimension (a
/// per-entry execution mode and an affine telemetry block), since removed
/// with the shard-affine executor. v5 added the per-plane read-latency
/// split (read_planes), one percentile set plus sample count per plane;
/// planes the mix never exercised report zeros.
/// Entries without the optional fields are still valid;
/// scripts/check_bench_schema.sh enforces that kv/* entries carry the
/// latency fields, kv/snapshot/* entries the read_planes block,
/// kv/overload/* entries the overload triple, kv/durable/* entries the
/// durability block, and net/* entries a throughput equal to their
/// goodput.
///
//===----------------------------------------------------------------------===//

#ifndef SATM_BENCH_BENCHJSON_H
#define SATM_BENCH_BENCHJSON_H

#include "stm/Report.h"
#include "stm/Stats.h"
#include "support/LatencyHistogram.h"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

namespace satm {
namespace bench {

/// One benchmark's row in the trajectory file.
struct BenchEntry {
  std::string Name;
  double NsPerOp = 0;
  uint64_t Ops = 0;
  uint64_t Commits = 0;
  uint64_t Aborts = 0;
  unsigned MedianOf = 1;
  stm::StatsCounters Counters; ///< Abort-reason histogram source.
  /// Service benchmarks: end-to-end latency percentiles and sustained
  /// throughput. HasLatency gates both optional JSON fields.
  bool HasLatency = false;
  LatencyHistogram::Percentiles Latency{};
  double OpsPerSec = 0;
  /// Per-read-plane latency split (kv_service): wait-free snapshot reads,
  /// non-transactional barrier GETs, and transactional multi-gets, each
  /// with its own percentile set and sample count. HasReadPlanes gates the
  /// read_planes JSON block; unexercised planes report zeros.
  bool HasReadPlanes = false;
  LatencyHistogram::Percentiles SnapLat{}, NtLat{}, TxnLat{};
  uint64_t SnapReads = 0, NtReads = 0, TxnReads = 0;
  /// Overload benchmarks: offered open-loop rate, goodput (requests that
  /// completed within budget), and the shed fraction. HasOverload gates
  /// the three optional JSON fields.
  bool HasOverload = false;
  double OfferedQps = 0;
  double GoodputOpsPerSec = 0;
  double ShedRate = 0;
  /// Durable benchmarks: write-ahead-log telemetry plus the recovery-time
  /// benchmark (ms to replay this run's full log into a fresh store).
  /// HasDurability gates the durability JSON block.
  bool HasDurability = false;
  std::string DurMode;        ///< "async" or "sync" (ack discipline).
  uint64_t FsyncBatches = 0;  ///< Group-commit fsync batches issued.
  uint64_t WalRecords = 0;    ///< Redo records persisted to disk.
  uint64_t RingStalls = 0;    ///< Producer waits on a full shard ring.
  double RecoveryMs = 0;      ///< Shard-parallel replay wall time.
  /// Checkpointed runs (nested inside the durability block): compaction
  /// telemetry plus the bounded recovery time. HasCheckpoint gates the
  /// checkpoint JSON sub-block (and requires HasDurability).
  bool HasCheckpoint = false;
  uint64_t CkptIntervalOps = 0;   ///< Redo records between snapshots.
  double CkptMs = 0;              ///< Wall time spent writing checkpoints.
  uint64_t WalTruncatedBytes = 0; ///< Log bytes reclaimed by compaction.
  double CkptRecoveryMs = 0;      ///< Checkpoint load + suffix replay.
  /// Wire benchmarks (bench/kv_loadgen): open-loop-over-TCP telemetry.
  /// HasNet gates the net JSON block.
  bool HasNet = false;
  double NetQpsOffered = 0;   ///< Poisson arrival rate over the socket.
  double NetGoodput = 0;      ///< Non-shed responses per second.
  uint64_t NetP99Ns = 0;      ///< p99 from scheduled arrival to receipt.
  double NetSloCapacity = 0;  ///< Sweep verdict: max qps meeting the SLO.
  double NetShedRate = 0;     ///< Overloaded/DeadlineExceeded fraction.
  double NetBatchAvg = 0;     ///< Server requests per amortizing txn.
};

inline void writeBenchJson(const char *Path, const char *Mode,
                           const std::vector<BenchEntry> &Entries) {
  FILE *F = std::fopen(Path, "w");
  if (!F) {
    std::fprintf(stderr, "bench: cannot write %s\n", Path);
    std::exit(1);
  }
  std::fprintf(F, "{\n");
  std::fprintf(F, "  \"schema\": \"satm-bench-v9\",\n");
  std::fprintf(F, "  \"mode\": \"%s\",\n", Mode);
  std::fprintf(F, "  \"benchmarks\": [\n");
  for (size_t I = 0; I < Entries.size(); ++I) {
    const BenchEntry &E = Entries[I];
    std::fprintf(F,
                 "    {\"name\": \"%s\", \"ns_per_op\": %.2f, \"ops\": "
                 "%" PRIu64 ", \"commits\": %" PRIu64 ", \"aborts\": %" PRIu64
                 ", \"median_of\": %u,\n     \"abort_reasons\": %s",
                 E.Name.c_str(), E.NsPerOp, E.Ops, E.Commits, E.Aborts,
                 E.MedianOf, stm::renderAbortReasonsJson(E.Counters).c_str());
    if (E.HasLatency)
      std::fprintf(F,
                   ",\n     \"throughput_ops_per_sec\": %.0f,\n"
                   "     \"latency_ns\": {\"p50\": %" PRIu64
                   ", \"p95\": %" PRIu64 ", \"p99\": %" PRIu64
                   ", \"p999\": %" PRIu64 "}",
                   E.OpsPerSec, E.Latency.P50, E.Latency.P95, E.Latency.P99,
                   E.Latency.P999);
    if (E.HasReadPlanes) {
      auto Plane = [&](const char *Key,
                       const LatencyHistogram::Percentiles &P, uint64_t N,
                       const char *Sep) {
        std::fprintf(F,
                     "\"%s\": {\"p50\": %" PRIu64 ", \"p95\": %" PRIu64
                     ", \"p99\": %" PRIu64 ", \"p999\": %" PRIu64
                     ", \"count\": %" PRIu64 "}%s",
                     Key, P.P50, P.P95, P.P99, P.P999, N, Sep);
      };
      std::fprintf(F, ",\n     \"read_planes\": {");
      Plane("snapshot", E.SnapLat, E.SnapReads, ", ");
      Plane("nt", E.NtLat, E.NtReads, ", ");
      Plane("txn", E.TxnLat, E.TxnReads, "}");
    }
    if (E.HasOverload)
      std::fprintf(F,
                   ",\n     \"offered_ops_per_sec\": %.0f, "
                   "\"goodput_ops_per_sec\": %.0f, \"shed_rate\": %.4f",
                   E.OfferedQps, E.GoodputOpsPerSec, E.ShedRate);
    if (E.HasDurability) {
      std::fprintf(F,
                   ",\n     \"durability\": {\"mode\": \"%s\", "
                   "\"fsync_batches\": %" PRIu64 ", \"records\": %" PRIu64
                   ", \"ring_stalls\": %" PRIu64 ", \"recovery_ms\": %.2f",
                   E.DurMode.c_str(), E.FsyncBatches, E.WalRecords,
                   E.RingStalls, E.RecoveryMs);
      if (E.HasCheckpoint)
        std::fprintf(F,
                     ",\n      \"checkpoint\": {\"interval_ops\": %" PRIu64
                     ", \"ckpt_ms\": %.2f, \"wal_truncated_bytes\": %" PRIu64
                     ", \"recovery_ms\": %.2f}",
                     E.CkptIntervalOps, E.CkptMs, E.WalTruncatedBytes,
                     E.CkptRecoveryMs);
      std::fprintf(F, "}");
    }
    if (E.HasNet)
      std::fprintf(F,
                   ",\n     \"net\": {\"qps_offered\": %.0f, "
                   "\"goodput\": %.0f, \"p99_ns\": %" PRIu64
                   ", \"slo_capacity\": %.0f, \"shed_rate\": %.4f, "
                   "\"batch_avg\": %.2f}",
                   E.NetQpsOffered, E.NetGoodput, E.NetP99Ns,
                   E.NetSloCapacity, E.NetShedRate, E.NetBatchAvg);
    std::fprintf(F, "}%s\n", I + 1 < Entries.size() ? "," : "");
  }
  std::fprintf(F, "  ]\n");
  std::fprintf(F, "}\n");
  std::fclose(F);
}

} // namespace bench
} // namespace satm

#endif // SATM_BENCH_BENCHJSON_H
