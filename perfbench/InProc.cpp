//===- perfbench/InProc.cpp - Workload stm_inproc ------------------------===//
//
// Part of the SATM project, reproducing Shpeisman et al., PLDI 2007.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// stm_inproc: a closed loop of `nproc` threads calling kv::Store directly
/// in the +DEA strong mode with the snapshot plane on. Mix GET 50 / PUT 15
/// / SNAP(8) 10 / MGET(8) 10 / RMW two-key transfer 10 / CAS 5; zipfian
/// (theta 0.99) keys over 64 Ki data keys, transfers over 4 Ki ledger keys
/// that nothing else writes. Barriers, validation, the contention manager
/// and snapshot publication do all the work; no net or WAL code runs.
///
/// Output checks: every GET/MGET/SNAP finds its keys, every transfer finds
/// both ledger keys, and the ledger keeps its sum exactly.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "rt/Heap.h"
#include "stm/Config.h"
#include "stm/Snapshot.h"
#include "support/Rng.h"
#include "support/Zipf.h"

#include <atomic>
#include <cstdio>
#include <memory>
#include <thread>

using namespace perfbench;
using namespace satm;

namespace {

constexpr uint64_t DataKeys = 64 * 1024;
constexpr uint64_t LedgerKeys = 4 * 1024;
/// Far from 0 and from Tombstone (~0): a hot ledger key's random walk
/// stays within a few million of it.
constexpr Word LedgerInit = Word(1) << 40;
constexpr unsigned SetupRepeats = 15;
/// One op about every SampleGapNs per thread is timed (unbiased: op kinds
/// are random). Sampling by time keeps the driver's sample buffers, which
/// are allocated up front, the same size whatever the throughput, so they
/// add a constant to peak_rss_mb: 8 bytes per sample, 2.4 MB per thread
/// for a 30 s run, beside about 16 MB for the rest of the process.
constexpr double SampleGapNs = 100000;
/// Ops between two looks at the clock for the next sample.
constexpr unsigned SampleCheckStride = 4;
/// Traced windows record a span around one Store call in SpanStride, up
/// to SpansPerThreadSec spans per thread and second of the run; the span
/// store is reserved before the run, so recording never reallocates.
constexpr unsigned SpanStride = 64;
constexpr double SpansPerThreadSec = 20000;

enum Kind : unsigned { Get, Put, Snap, Mget, Rmw, Cas, NumKinds };
const char *const KindName[NumKinds] = {"get", "put", "snap_mget",
                                        "mget", "rmw", "cas"};
const char *const KindSpan[NumKinds] = {
    "kv.store.get",  "kv.store.put", "kv.store.snap_mget",
    "kv.store.mget", "kv.store.rmw", "kv.store.cas"};
/// Cumulative mix percentages, in Kind order.
const unsigned MixUpTo[NumKinds] = {50, 65, 75, 85, 95, 100};

bool isRead(unsigned K) { return K == Get || K == Snap || K == Mget; }

struct Stack {
  rt::Heap H;
  kv::Store S;
  explicit Stack(const kv::StoreConfig &C) : S(H, C) {}
};

struct ThreadResult {
  std::vector<uint64_t> Ops; ///< Per throughput window.
  /// Timed calls in time order: kind and duration in ns; the first NTimed
  /// entries are filled.
  std::vector<std::pair<uint8_t, float>> Timed;
  size_t NTimed = 0;
  FailureTally Tally;
  SpanLog Spans;
  std::vector<std::string> Violations;
};

/// Runs the mix until \p WindowNow turns negative, counting ops per
/// throughput window; in trace mode the odd windows are traced.
void worker(kv::Store &S, const Args &A, unsigned T,
            const std::atomic<int> &WindowNow, ThreadResult &Out) {
  Rng R(A.Seed * 0x9e3779b97f4a7c15ull + T);
  ZipfKeys Z(DataKeys, A.Seed ^ (0x1000 + T));
  ZipfKeys ZL(LedgerKeys, A.Seed ^ (0x2000 + T));
  Word LastKey = 0, LastVal = 0; // The latest GET, for read-then-CAS.
  uint64_t N = 0;
  int64_t NextSample = 0;
  for (;;) {
    int Window = WindowNow.load(std::memory_order_relaxed);
    if (Window < 0)
      break;
    bool Traced = A.Trace && (Window & 1);
    unsigned P = unsigned(R.nextBelow(100)), K = 0;
    while (P >= MixUpTo[K])
      ++K;
    Word Keys[8], Vals[8];
    if (K == Snap || K == Mget) {
      for (Word &Key : Keys)
        Key = Z.next();
    } else if (K == Rmw) {
      Keys[0] = DataKeys + ZL.next();
      do // Redraw rather than shift: a shifted key would drift.
        Keys[1] = DataKeys + ZL.next();
      while (Keys[1] == Keys[0]);
    } else if (K == Cas) {
      Keys[0] = LastKey;
    } else {
      Keys[0] = Z.next();
    }
    Word NewVal = R.next() >> 1; // Never Tombstone.
    Word Delta = 1 + R.nextBelow(100);
    ++N;
    bool Timed = false;
    bool Spanned = Traced && N % SpanStride == 0 &&
                   Out.Spans.Spans.size() < Out.Spans.Spans.capacity();
    int64_t T0 = 0; // Latency samples come from untraced windows only.
    if (!Traced && N % SampleCheckStride == 0 &&
        Out.NTimed < Out.Timed.size()) {
      T0 = nowNs();
      Timed = T0 >= NextSample;
      NextSample = Timed ? T0 + int64_t(SampleGapNs) : NextSample;
    }
    int64_t SpanStart = Spanned ? nowNs() : 0;

    Outcome O = Outcome::Ok;
    switch (K) {
    case Get:
      if (!S.get(Keys[0], LastVal))
        Out.Violations.push_back("GET found no value for a prepopulated key");
      LastKey = Keys[0];
      break;
    case Put:
      if (!S.put(Keys[0], NewVal))
        O = Outcome::Refused; // Shard full.
      break;
    case Snap:
      if (S.snapshotMultiGet(Keys, 8, Vals) != 8)
        Out.Violations.push_back("SNAP missed a prepopulated key");
      break;
    case Mget:
      if (S.multiGet(Keys, 8, Vals) != 8)
        Out.Violations.push_back("MGET missed a prepopulated key");
      break;
    case Rmw:
      if (!S.readModifyWrite(Keys, 2, [Delta](Word *V, size_t) {
            V[0] -= Delta;
            V[1] += Delta;
          }))
        Out.Violations.push_back("transfer missed a ledger key");
      break;
    case Cas:
      O = S.cas(Keys[0], LastVal, NewVal) ? Outcome::Ok : Outcome::Mismatch;
      break;
    }

    if (Timed)
      Out.Timed[Out.NTimed++] = {uint8_t(K), float(nowNs() - T0)};
    if (Spanned) // Request ids as in Wire.cpp: thread in the top bits.
      Out.Spans.add(0, uint64_t(T + 1) << 48 | N, KindSpan[K], SpanStart,
                    nowNs());
    Out.Tally.add(O);
    Out.Ops[Window]++;
    if (Out.Violations.size() > 20)
      break;
  }
}

} // namespace

int perfbench::runStmInproc(const Args &A, Report &R) {
  unsigned Threads = hostCpus();
  if (!admitLoad(R, Threads, 0, 0, 0, 0))
    return 2;
  R.contextStr("mix", "get 50 / put 15 / snap_mget(8) 10 / mget(8) 10 / "
                      "rmw transfer(2) 10 / cas 5");
  R.contextStr("keys", "zipfian 0.99 over 65536 data keys; transfers over "
                       "4096 ledger keys");
  R.contextStr("loop", "closed, one op in flight per thread");
  R.contextStr("flush_policy", "none (no WAL)");

  stm::Config Cfg;
  Cfg.DeaEnabled = true;
  stm::ScopedConfig SC(Cfg);

  // Setup, repeated: the median is setup_s. The last stack is measured.
  std::vector<double> SetupS, PrepopS;
  std::unique_ptr<Stack> St;
  SpanLog Setup(uint64_t(1) << 60);
  for (unsigned I = 0; I < SetupRepeats; ++I) {
    St.reset();
    stm::snap::resetTable();
    int64_t T0 = nowNs();
    St = std::make_unique<Stack>(storeConfigFor(DataKeys + LedgerKeys));
    int64_t T1 = nowNs();
    bool Ok = prepopulate(
        St->S, 0, DataKeys + LedgerKeys,
        [](Word K) { return K < DataKeys ? K * 2 + 1 : LedgerInit; },
        Threads);
    int64_t T2 = nowNs();
    if (!Ok) {
      std::fprintf(stderr, "stm_inproc: prepopulate overflowed a shard\n");
      return 2;
    }
    SetupS.push_back(double(T2 - T0) / 1e9);
    PrepopS.push_back(double(T2 - T1) / 1e9);
    if (A.Trace && I + 1 == SetupRepeats) {
      uint64_t Root = Setup.add(0, 0, "setup", T0, T2);
      Setup.add(Root, 0, "kv.store.build", T0, T1);
      Setup.add(Root, 0, "kv.store.prepopulate", T1, T2);
    }
  }
  kv::Store &S = St->S;
  Cfg.SnapshotEnabled = true; // After the bulk load, as kv_service does.
  stm::config() = Cfg;

  unsigned Windows = throughputWindows(A.Seconds);
  std::vector<ThreadResult> Res(Threads);
  for (unsigned T = 0; T < Threads; ++T) {
    Res[T].Ops.assign(Windows, 0);
    Res[T].Timed.resize(size_t(A.Seconds * 1e9 / SampleGapNs) + 64);
    Res[T].Spans = SpanLog(uint64_t(T + 1) << 48);
    if (A.Trace)
      Res[T].Spans.Spans.reserve(size_t(A.Seconds * SpansPerThreadSec));
  }
  std::atomic<int> WindowNow{0};
  resetPeakRss();
  stm::StatsCounters Before = stm::statsSnapshot();
  HostTicks Host0 = hostTicks();
  int64_t Cpu0 = processCpuNs(), Wall0 = nowNs();
  std::vector<std::thread> Ts;
  for (unsigned T = 0; T < Threads; ++T)
    Ts.emplace_back(worker, std::ref(S), std::cref(A), T,
                    std::cref(WindowNow), std::ref(Res[T]));
  std::vector<double> WindowSec(Windows);
  int64_t WindowStart = Wall0;
  for (unsigned I = 0; I < Windows; ++I) {
    int64_t End = Wall0 + int64_t(A.Seconds * 1e9 * (I + 1) / Windows);
    std::this_thread::sleep_for(std::chrono::nanoseconds(End - nowNs()));
    int64_t Now = nowNs();
    WindowSec[I] = double(Now - WindowStart) / 1e9;
    WindowStart = Now;
    WindowNow.store(I + 1 < Windows ? int(I + 1) : -1,
                    std::memory_order_relaxed);
  }
  for (std::thread &T : Ts)
    T.join();
  int64_t Cpu1 = processCpuNs();
  double PeakRss = peakRssMb(); // Before the driver's own aggregation.
  R.context("host_steal_share", stealShare(Host0, hostTicks()));
  stm::StatsCounters Delta = stm::statsSnapshot();
  Delta -= Before;

  // Output checks.
  Word Sum = 0;
  for (Word K = DataKeys; K < DataKeys + LedgerKeys; ++K) {
    Word V = 0;
    if (!S.get(K, V))
      R.violation("ledger key lost");
    Sum += V;
  }
  if (Sum != LedgerKeys * LedgerInit)
    R.violation("ledger sum drifted: " + std::to_string(Sum) + " != " +
                std::to_string(LedgerKeys * LedgerInit));

  // Aggregate.
  std::vector<double> All, Reads, Writes, PerKind[NumKinds];
  std::vector<Span> Spans = Setup.Spans;
  uint64_t TotalOps = 0;
  for (ThreadResult &T : Res) {
    for (const std::string &V : T.Violations)
      R.violation(V);
    R.Failures += T.Tally;
    for (size_t I = 0; I < T.NTimed; ++I) {
      auto [K, Ns] = T.Timed[I];
      All.push_back(double(Ns) / 1e3);
      (isRead(K) ? Reads : Writes).push_back(double(Ns) / 1e3);
      PerKind[K].push_back(double(Ns));
    }
    Spans.insert(Spans.end(), T.Spans.Spans.begin(), T.Spans.Spans.end());
  }
  std::vector<double> Untraced, Traced; // Throughput of each window.
  for (unsigned I = 0; I < Windows; ++I) {
    uint64_t N = 0;
    for (ThreadResult &T : Res)
      N += T.Ops[I];
    TotalOps += N;
    (A.Trace && I % 2 ? Traced : Untraced).push_back(double(N) /
                                                     WindowSec[I]);
  }

  Summary SAll = summarize(All, MedianBlockRank),
          SRead = summarize(Reads, MedianBlockRank),
          SWrite = summarize(Writes, MedianBlockRank);
  R.metric("setup_s", median(SetupS), "s");
  R.metric("throughput_ops_s", median(Untraced), "1/s");
  R.metric("latency_p50_us", SAll.P50, "us");
  R.metric("latency_p90_us", SAll.P90, "us");
  R.metric("latency_p99_us", SAll.P99, "us");
  R.metric("read_p50_us", SRead.P50, "us");
  R.metric("read_p90_us", SRead.P90, "us");
  R.metric("read_p99_us", SRead.P99, "us");
  R.metric("write_p50_us", SWrite.P50, "us");
  R.metric("write_p90_us", SWrite.P90, "us");
  R.metric("write_p99_us", SWrite.P99, "us");
  R.metric("cpu_us_per_op", double(Cpu1 - Cpu0) / 1e3 / double(TotalOps),
           "us");
  R.metric("peak_rss_mb", PeakRss, "MB");
  R.metric("failed_ratio", R.Failures.ratio(), "ratio");

  R.metric("driver.samples", double(SAll.N), "count");
  if (A.Trace)
    R.metric("driver.trace_overhead_ratio",
             median(Traced) / median(Untraced), "ratio");
  R.metric("kv.store.prepopulate_s", median(PrepopS), "s");
  for (unsigned K = 0; K < NumKinds; ++K) {
    Summary SK = summarize(PerKind[K], MedianBlockRank);
    R.metric(std::string("kv.store.") + KindName[K] + "_ns_p50", SK.P50,
             "ns");
    R.metric(std::string("kv.store.") + KindName[K] + "_ns_p99", SK.P99,
             "ns");
  }
  kv::Store::ReclaimStats RS = S.reclaimStats();
  R.metric("kv.store.allocated", double(RS.Allocated), "count");
  R.metric("kv.store.recycled", double(RS.Recycled), "count");
  reportStm(R, Delta);
  R.metric("rt.heap_mb", double(St->H.bytesAllocated()) / (1 << 20), "MB");
  if (A.Trace) {
    R.metric("trace.spans", double(Spans.size()), "count");
    std::string Path = A.Scratch + "/spans-stm_inproc-" +
                       std::to_string(A.Seed) + ".tsv";
    writeSpans(Path, Spans, selfTimes(Spans));
    R.contextStr("span_file", Path);
  }

  R.context("setup_repeats", SetupRepeats);
  R.context("latency_samples", double(SAll.N));
  R.context("read_samples", double(SRead.N));
  R.context("write_samples", double(SWrite.N));
  R.context("latency_top_percentile", SAll.TopPct);
  R.context("latency_top_us", SAll.Top);
  R.context("latency_blocks", double(SAll.Blocks));
  R.context("throughput_windows", Windows);
  R.contextStr("latency_definition",
               "per-call service time of one op per thread every 100 us");

  St.reset();
  stm::snap::resetTable();
  return 0;
}
