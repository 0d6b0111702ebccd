//===- perfbench/Driver.cpp - SATM benchmark driver entry point -----------===//
//
// Part of the SATM project, reproducing Shpeisman et al., PLDI 2007.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// satm_perfbench --workload NAME --seed N --seconds S --trace 0|1
///                [--scratch DIR]
///
/// Runs one workload (stm_inproc, wire_durable; see
/// perfbench/README.md) in this one process and prints, line by line:
///
///   context {json}          run context: host, seed, threads, policy
///   metric NAME VALUE UNIT  every measured metric
///   outcome KIND N          what became of the attempted operations
///   violation TEXT          a failed output check (the run fails)
///   result {json}           correct / attempted / failed
///
/// Exit status: 0 when every output check held, 1 on a violation, 2 when
/// the run was refused or could not start.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <malloc.h>
#include <sched.h>
#include <sys/utsname.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <thread>

using namespace perfbench;
using namespace satm;

namespace perfbench {

int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

static int64_t clockNs(clockid_t Id) {
  timespec T{};
  clock_gettime(Id, &T);
  return int64_t(T.tv_sec) * 1000000000 + T.tv_nsec;
}
int64_t threadCpuNs() { return clockNs(CLOCK_THREAD_CPUTIME_ID); }
int64_t processCpuNs() { return clockNs(CLOCK_PROCESS_CPUTIME_ID); }

double peakRssMb() {
  std::ifstream In("/proc/self/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0;
  return 0;
}

void resetPeakRss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5"; // 5: reset VmHWM.
}

HostTicks hostTicks() {
  std::ifstream In("/proc/stat");
  std::string Cpu;
  HostTicks T;
  In >> Cpu;
  for (int I = 0; I < 8 && In; ++I) { // user .. steal
    uint64_t V = 0;
    In >> V;
    T.Total += V;
    if (I == 7)
      T.Steal = V;
  }
  return T;
}

unsigned hostCpus() {
  cpu_set_t Set;
  if (sched_getaffinity(0, sizeof(Set), &Set) == 0)
    return unsigned(CPU_COUNT(&Set));
  return std::thread::hardware_concurrency();
}

bool admitLoad(Report &R, unsigned DriverThreads, unsigned IoThreads,
               unsigned Workers, unsigned WalDrainers, unsigned Connections) {
  unsigned Cpus = hostCpus();
  unsigned Load = DriverThreads + IoThreads + Workers + WalDrainers;
  bool Ok = Load <= Cpus && Connections <= Cpus;
  R.context("driver_threads", DriverThreads);
  R.context("server_io_threads", IoThreads);
  R.context("server_workers", Workers);
  R.context("wal_drain_threads", WalDrainers);
  R.context("connections", Connections);
  R.context("load_threads", Load);
  R.context("load_within_nproc", Ok ? "true" : "false");
  if (!Ok)
    std::fprintf(stderr,
                 "satm_perfbench: refusing to run: %u busy threads and %u "
                 "connections on %u CPUs\n",
                 Load, Connections, Cpus);
  return Ok;
}

void runThreads(unsigned N, const std::function<void(unsigned)> &Body) {
  std::vector<std::thread> Ts;
  Ts.reserve(N);
  for (unsigned I = 0; I < N; ++I)
    Ts.emplace_back(Body, I);
  for (std::thread &T : Ts)
    T.join();
}

kv::StoreConfig storeConfigFor(uint64_t TotalKeys) {
  kv::StoreConfig C;
  C.Shards = 16;
  // The store rounds capacity up to a power of two: load stays <= 2/3.
  C.CapacityPerShard = uint32_t(TotalKeys / C.Shards * 3 / 2);
  return C;
}

bool prepopulate(kv::Store &S, Word First, uint64_t N,
                 const std::function<Word(Word)> &ValueOf, unsigned Threads) {
  std::atomic<bool> Ok{true};
  runThreads(Threads, [&](unsigned T) {
    for (Word K = First; K < First + N; ++K)
      if (S.shardOf(K) % Threads == T && !S.insert(K, ValueOf(K)))
        Ok.store(false);
  });
  return Ok.load();
}

void writeSpans(const std::string &Path, const std::vector<Span> &Spans,
                const std::vector<int64_t> &Self) {
  std::ofstream F(Path);
  F << "id\tparent\trequest\tname\tstart_ns\tend_ns\tself_ns\n";
  for (size_t I = 0; I < Spans.size(); ++I)
    F << Spans[I].Id << '\t' << Spans[I].Parent << '\t' << Spans[I].Request
      << '\t' << Spans[I].Name << '\t' << Spans[I].Start << '\t'
      << Spans[I].End << '\t' << Self[I] << '\n';
}

void reportStm(Report &R, const stm::StatsCounters &D) {
  uint64_t Attempts = D.TxnCommits + D.TxnAborts;
  uint64_t Barriers =
      D.NtReadBarriers + D.NtWriteBarriers + D.AggregatedBarriers;
  R.metric("stm.commits", double(D.TxnCommits), "count");
  R.metric("stm.aborts", double(D.TxnAborts), "count");
  R.metric("stm.commit_ratio",
           Attempts ? double(D.TxnCommits) / double(Attempts) : 0, "ratio");
  for (unsigned I = 0; I < stm::NumAbortReasons; ++I)
    R.metric(std::string("stm.aborts.") +
                 stm::abortReasonKey(stm::AbortReason(I)),
             double(D.AbortReasons[I]), "count");
  R.metric("stm.serial_mode_entries", double(D.SerialModeEntries), "count");
  R.metric("stm.txn_reads_per_commit",
           D.TxnCommits ? double(D.TxnReads) / double(D.TxnCommits) : 0,
           "count");
  R.metric("stm.nt_read_barriers", double(D.NtReadBarriers), "count");
  R.metric("stm.nt_write_barriers", double(D.NtWriteBarriers), "count");
  R.metric("stm.nt_conflicts",
           double(D.NtReadConflicts + D.NtWriteConflicts), "count");
  R.metric("stm.private_fast_path_ratio",
           Barriers ? double(D.PrivateFastPaths) / double(Barriers) : 0,
           "ratio");
  R.metric("stm.snapshot_publishes", double(D.SnapshotPublishes), "count");
  R.metric("stm.snapshot_nodes_freed", double(D.SnapshotNodesFreed),
           "count");
  R.metric("stm.quiesce_waits", double(D.QuiesceWaits), "count");
}

static std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (unsigned(C) < 0x20)
      continue;
    Out += C;
  }
  return Out + "\"";
}

static std::string jsonNumber(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

void Report::context(const std::string &Key, double V) {
  context(Key, jsonNumber(V));
}

void Report::contextStr(const std::string &Key, const std::string &V) {
  context(Key, jsonString(V));
}

void Report::violation(const std::string &What) {
  if (++ViolationCount <= 20)
    Violations.push_back(What);
}

} // namespace perfbench

namespace {

std::string cpuModel() {
  std::ifstream In("/proc/cpuinfo");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("model name", 0) == 0) {
      size_t Colon = Line.find(':');
      return Colon == std::string::npos ? Line : Line.substr(Colon + 2);
    }
  return "unknown";
}

std::string kernelRelease() {
  utsname U{};
  return uname(&U) == 0 ? std::string(U.sysname) + " " + U.release
                        : "unknown";
}

[[noreturn]] void usage(const char *Why) {
  std::fprintf(stderr,
               "satm_perfbench: %s\n"
               "usage: satm_perfbench --workload stm_inproc|wire_durable "
               "--seed N --seconds S --trace 0|1 "
               "[--scratch DIR]\n",
               Why);
  std::exit(2);
}

Args parseArgs(int Argc, char **Argv) {
  Args A;
  bool HaveWorkload = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Flag = Argv[I];
    if (I + 1 >= Argc)
      usage(("missing value for " + Flag).c_str());
    const char *V = Argv[++I];
    char *End = nullptr;
    if (Flag == "--workload") {
      A.Workload = V;
      HaveWorkload = true;
    } else if (Flag == "--seed") {
      A.Seed = std::strtoull(V, &End, 10);
    } else if (Flag == "--seconds") {
      A.Seconds = std::strtod(V, &End);
      if (!(A.Seconds >= 1 && A.Seconds <= 600))
        usage("--seconds must be within [1, 600]");
    } else if (Flag == "--trace") {
      if (std::strcmp(V, "0") && std::strcmp(V, "1"))
        usage("--trace takes 0 or 1");
      A.Trace = V[0] == '1';
    } else if (Flag == "--scratch") {
      A.Scratch = V;
    } else {
      usage(("unknown flag " + Flag).c_str());
    }
    if (End && *End)
      usage(("malformed value for " + Flag).c_str());
  }
  if (!HaveWorkload)
    usage("--workload is required");
  if (A.Scratch.empty())
    A.Scratch = ".bench_build/perfbench-scratch";
  return A;
}

} // namespace

int main(int Argc, char **Argv) {
  Args A = parseArgs(Argc, Argv);
  std::error_code Ec;
  std::filesystem::create_directories(A.Scratch, Ec);
  Report R;
  R.contextStr("workload", A.Workload);
  R.context("seed", double(A.Seed));
  R.context("seconds", A.Seconds);
  R.context("trace", A.Trace ? 1 : 0);
  R.context("nproc", hostCpus());
  R.contextStr("cpu_model", cpuModel());
  R.contextStr("kernel", kernelRelease());
  R.contextStr("build_type", PERFBENCH_BUILD_TYPE);

  int Rc;
  if (A.Workload == "stm_inproc")
    Rc = runStmInproc(A, R);
  else if (A.Workload == "wire_durable")
    Rc = runWireDurable(A, R);
  else
    usage(("unknown workload " + A.Workload).c_str());

  std::string Ctx = "{";
  for (size_t I = 0; I < R.Context.size(); ++I)
    Ctx += (I ? ", " : "") + jsonString(R.Context[I].first) + ": " +
           R.Context[I].second;
  std::printf("context %s}\n", Ctx.c_str());
  if (Rc == 2) {
    std::fflush(stdout);
    return 2;
  }
  for (const Report::Metric &M : R.Metrics)
    std::printf("metric %s %s %s\n", M.Name.c_str(),
                jsonNumber(M.Value).c_str(), M.Unit.c_str());
  for (unsigned I = 0; I < NumOutcomes; ++I)
    if (R.Failures.Counts[I])
      std::printf("outcome %s %" PRIu64 "\n", outcomeName(Outcome(I)),
                  R.Failures.Counts[I]);
  for (const std::string &V : R.Violations)
    std::printf("violation %s\n", V.c_str());
  if (R.ViolationCount > R.Violations.size())
    std::printf("violation (%" PRIu64 " more)\n",
                R.ViolationCount - R.Violations.size());
  bool Correct = R.ViolationCount == 0 && Rc == 0;
  std::printf("result {\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 "}\n",
              Correct ? "true" : "false", R.Failures.attempted(),
              R.Failures.failed());
  std::fflush(stdout);
  return Correct ? 0 : 1;
}
