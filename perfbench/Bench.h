//===- perfbench/Bench.h - Shared pieces of the benchmark driver -*- C++ -*-===//
//
// Part of the SATM project, reproducing Shpeisman et al., PLDI 2007.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What the two workloads (InProc.cpp, Wire.cpp) share: the run
/// arguments, the report they fill (metrics by name, run context, output
/// violations, the failure ledger), clocks, and store construction with
/// shard-parallel prepopulation.
///
//===----------------------------------------------------------------------===//

#ifndef SATM_PERFBENCH_BENCH_H
#define SATM_PERFBENCH_BENCH_H

#include "Measure.h"

#include "kv/Store.h"
#include "stm/Stats.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using satm::kv::Word;

struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string Scratch; ///< Directory for WAL files and span dumps.
};

/// Everything a run reports. Metric names and units follow
/// BENCHMARK.json; run.py prints the ones it lists for the run's mode.
class Report {
public:
  void metric(const std::string &Name, double Value, const char *Unit) {
    Metrics.push_back({Name, Value, Unit});
  }
  /// Run-context entry; \p Json is an already-encoded JSON value.
  void context(const std::string &Key, const std::string &Json) {
    Context.push_back({Key, Json});
  }
  void context(const std::string &Key, double V);
  void contextStr(const std::string &Key, const std::string &V);

  /// Records an output-check violation; the run then fails. Only the
  /// first few are kept verbatim.
  void violation(const std::string &What);

  struct Metric {
    std::string Name;
    double Value;
    std::string Unit;
  };
  std::vector<Metric> Metrics;
  std::vector<std::pair<std::string, std::string>> Context;
  std::vector<std::string> Violations;
  uint64_t ViolationCount = 0;
  FailureTally Failures;
};

int64_t nowNs();
int64_t threadCpuNs();
int64_t processCpuNs();
/// The process's peak resident set (VmHWM), MiB, since the last
/// resetPeakRss().
double peakRssMb();
/// Returns the heap's free memory to the system and restarts VmHWM from
/// the current resident set, so that peakRssMb() covers the measured
/// window only: the repeated set-ups before it free whole stores, and
/// whether malloc keeps that memory resident varies from run to run.
void resetPeakRss();
/// Cumulative CPU time of the whole host as /proc/stat counts it: the
/// time the hypervisor ran other guests on our CPUs (steal), and all.
struct HostTicks {
  uint64_t Steal = 0, Total = 0;
};
HostTicks hostTicks();
/// Share of CPU time stolen between \p A and \p B (0 if unknown), for
/// the run context: a noisy neighbour explains a noisy run.
inline double stealShare(const HostTicks &A, const HostTicks &B) {
  return B.Total > A.Total
             ? double(B.Steal - A.Steal) / double(B.Total - A.Total)
             : 0.0;
}

/// CPUs this process may run on (what `nproc` prints).
unsigned hostCpus();

/// Records the load plan in the run context and refuses it (returns
/// false, with a message) when the busy threads -- driver threads plus the
/// server's I/O threads, shard workers and WAL drainers -- or the
/// connections exceed the CPUs available.
bool admitLoad(Report &R, unsigned DriverThreads, unsigned IoThreads,
               unsigned Workers, unsigned WalDrainers, unsigned Connections);

/// Spawns \p N threads running \p Body(index) and joins them all.
void runThreads(unsigned N, const std::function<void(unsigned)> &Body);

/// Store shape for \p TotalKeys keys: 16 shards, at most 2/3 full.
satm::kv::StoreConfig storeConfigFor(uint64_t TotalKeys);

/// Inserts keys [First, First + N) with value \p ValueOf(key), one thread
/// per shard group so no two inserters ever share a shard. Returns false
/// if a shard overflows.
bool prepopulate(satm::kv::Store &S, Word First, uint64_t N,
                 const std::function<Word(Word)> &ValueOf, unsigned Threads);

/// Writes \p Spans with their self times as a tab-separated table.
void writeSpans(const std::string &Path, const std::vector<Span> &Spans,
                const std::vector<int64_t> &Self);

/// The stm.* per-layer metrics from a counter delta over the measured
/// window.
void reportStm(Report &R, const satm::stm::StatsCounters &D);

/// Closed-loop throughput is the median over windows of about this many
/// seconds, so a host stall costs one window rather than the run.
constexpr double ThroughputWindowSec = 0.5;

/// Windows for a closed loop of \p Seconds: an even number, at least 4,
/// so trace mode can alternate untraced and traced windows.
inline unsigned throughputWindows(double Seconds) {
  unsigned Pairs = unsigned(Seconds / ThroughputWindowSec / 2 + 0.5);
  return 2 * std::max(2u, Pairs);
}

/// A value that encodes the key it belongs to and a write sequence
/// number: what wire_durable's GET checks decode.
inline Word encodeValue(Word Key, uint64_t Seq) { return Key << 32 | Seq; }
inline Word valueKey(Word V) { return V >> 32; }
inline uint64_t valueSeq(Word V) { return V & 0xffffffffu; }

int runStmInproc(const Args &A, Report &R);
int runWireDurable(const Args &A, Report &R);

} // namespace perfbench

#endif // SATM_PERFBENCH_BENCH_H
