//===- bench/kv_loadgen.cpp - Open-loop wire load generator --------------===//
//
// Part of the SATM project, reproducing Shpeisman et al., PLDI 2007.
//
//===----------------------------------------------------------------------===//
//
// TailBench-style open-loop load generator for bench/kv_server,
// measured over real TCP sockets. Each connection runs a sender thread
// and a receiver thread:
//
//  - the sender draws Poisson inter-arrival gaps at its share of the
//    offered rate, spins/sleeps to each *scheduled* arrival instant,
//    stamps the request's correlation id into an outstanding-map with
//    that instant, and writes the frame — never waiting for responses,
//    so a slow server cannot throttle the arrival process (that is what
//    "open-loop" means, and what makes the measured tail honest: a
//    closed-loop client would coordinate with the server and hide the
//    queueing delay, the coordinated-omission trap);
//  - the receiver matches responses by correlation id and records
//    latency = receive time − *scheduled arrival* (not send time), so
//    sender-side scheduling slips are charged to the tail too.
//
// A sweep (--sweep=lo:hi:steps) runs the window at each offered rate and
// reports the TailBench SLO capacity: the highest offered qps whose p99
// stayed under --slo-us with a shed rate ≤ 1%. Around each window the
// tool probes the server's STATS counters and differences them, so every
// point also reports the server-side requests-per-transaction batching
// factor actually achieved at that load (net batching is load-dependent:
// batches only form when requests arrive together).
//
// Results go into net/* entries of the satm-bench-v9 JSON (BenchJson.h).
//
//===----------------------------------------------------------------------===//

#include "BenchJson.h"

#include "net/Client.h"
#include "net/Protocol.h"
#include "support/LatencyHistogram.h"
#include "support/Rng.h"
#include "support/Zipf.h"

#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include <unistd.h>

using namespace satm;
using namespace satm::bench;

namespace {

using Clock = std::chrono::steady_clock;

/// Request mix in percent (no snapshot plane over the wire; the server
/// routes every read through the transactional batch path).
struct Mix {
  unsigned Get = 80, Put = 10, Mget = 5, Rmw = 3, Cas = 2;
  unsigned sum() const { return Get + Put + Mget + Rmw + Cas; }
  std::string str() const {
    char Buf[96];
    std::snprintf(Buf, sizeof(Buf), "get:%u,put:%u,mget:%u,rmw:%u,cas:%u",
                  Get, Put, Mget, Rmw, Cas);
    return Buf;
  }
};

bool parseMix(const char *Spec, Mix &M) {
  Mix Out{0, 0, 0, 0, 0};
  std::string S(Spec);
  size_t Pos = 0;
  while (Pos < S.size()) {
    size_t Comma = S.find(',', Pos);
    if (Comma == std::string::npos)
      Comma = S.size();
    std::string Tok = S.substr(Pos, Comma - Pos);
    Pos = Comma + 1;
    size_t Colon = Tok.find(':');
    if (Colon == std::string::npos)
      return false;
    unsigned V = unsigned(std::atoi(Tok.c_str() + Colon + 1));
    std::string K = Tok.substr(0, Colon);
    if (K == "get")
      Out.Get = V;
    else if (K == "put")
      Out.Put = V;
    else if (K == "mget")
      Out.Mget = V;
    else if (K == "rmw")
      Out.Rmw = V;
    else if (K == "cas")
      Out.Cas = V;
    else
      return false;
  }
  if (Out.sum() != 100)
    return false;
  M = Out;
  return true;
}

struct GenConfig {
  std::string Host = "127.0.0.1";
  uint16_t Port = 0;
  std::string PortFile;   ///< Poll this for the server's ephemeral port.
  double Qps = 0;         ///< Single-point rate, or the sweep floor.
  double SweepHi = 0;     ///< > 0: sweep from Qps to SweepHi.
  unsigned SweepSteps = 0;
  double DurationS = 5;
  unsigned Conns = 4;
  uint64_t Keys = 1 << 16;
  KeyGenerator::Dist Dist = KeyGenerator::Dist::Zipfian;
  double Theta = 0.99;
  Mix M;
  uint32_t MgetKeys = 8;
  uint64_t Seed = 2026;
  uint64_t SloUs = 1000; ///< p99 SLO for the capacity verdict (1 ms).
  std::string JsonPath;
  std::string Tag = "open"; ///< Entry-name tag: net/<tag>_q<rate>.
  std::string Mode = "full"; ///< Bench JSON mode stamp (full | smoke).
  bool StopServer = false; ///< Send SHUTDOWN when done.
  /// Idempotent-op retry budget (net::RetryPolicy) for the STATS probe
  /// clients: a probe that loses its connection re-dials with capped
  /// exponential backoff and re-asks. The pipelined data path never
  /// retries — its in-flight window holds mutations, and a blind PUT/CAS
  /// resend could double-apply (net/Client.h).
  uint32_t Retries = 0;
};

/// Spin-then-sleep to \p Deadline (same discipline as kv_service: sleep
/// stops a scheduler tick early, the rest is yield-spun, so oversleep is
/// not charged to request latency as phantom queueing).
void waitUntil(Clock::time_point Deadline) {
  for (;;) {
    auto Now = Clock::now();
    if (Now >= Deadline)
      return;
    auto Slack = Deadline - Now;
    if (Slack > std::chrono::milliseconds(3))
      std::this_thread::sleep_for(Slack - std::chrono::milliseconds(2));
    else if (Slack > std::chrono::microseconds(20))
      std::this_thread::yield();
  }
}

/// One connection's load: a sender thread (Poisson arrivals) plus a
/// receiver thread (latency from scheduled arrival). The outstanding map
/// is the only shared state; both sides touch it briefly per request.
class ConnDriver {
public:
  ConnDriver(const GenConfig &C, unsigned Id, double RatePerConn)
      : C(C), Rate(RatePerConn),
        Gen(C.Dist, C.Keys, C.Seed + 0x9e3779b9u * (Id + 1), C.Theta),
        Ops(C.Seed * 131 + Id) {}

  bool connect() {
    std::string Err;
    if (!Cl.connectTo(C.Host, C.Port, &Err)) {
      std::fprintf(stderr, "kv_loadgen: %s\n", Err.c_str());
      return false;
    }
    return true;
  }

  void start(Clock::time_point StartAt, Clock::time_point StopAt) {
    Receiver = std::thread([this] { recvLoop(); });
    Sender = std::thread([this, StartAt, StopAt] { sendLoop(StartAt, StopAt); });
  }

  /// Joins the sender, waits (bounded) for stragglers, shuts the socket
  /// down (waking the receiver), joins the receiver, then closes.
  void finish() {
    Sender.join();
    auto Grace = Clock::now() + std::chrono::milliseconds(500);
    while (Clock::now() < Grace) {
      {
        std::lock_guard<std::mutex> L(OutMutex);
        if (Outstanding.empty())
          break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    Cl.shutdownConn(); // EOF unblocks the receiver's read; fd stays ours.
    Receiver.join();
    Cl.close();
  }

  // Per-connection results, read after finish().
  uint64_t Sent = 0;
  uint64_t Done = 0;     ///< Responses received in the window.
  uint64_t Good = 0;     ///< Ok/NotFound/Mismatch (request served).
  uint64_t Shed = 0;     ///< Overloaded/DeadlineExceeded.
  uint64_t Errors = 0;   ///< Full/BadRequest/transport loss.
  uint64_t DurLost = 0;  ///< DurabilityLost: committed, fsync promise broken.
  LatencyHistogram Hist; ///< Scheduled-arrival → receipt, served only.

private:
  void sendLoop(Clock::time_point StartAt, Clock::time_point StopAt) {
    const double RatePerNs = Rate * 1e-9;
    double ArrivalNs = 0;
    uint64_t Cid = 1;
    for (;;) {
      ArrivalNs += -std::log(1.0 - Ops.nextDouble()) / RatePerNs;
      Clock::time_point At =
          StartAt + std::chrono::nanoseconds(uint64_t(ArrivalNs));
      if (At >= StopAt)
        break;
      waitUntil(At);
      net::Frame F = makeRequest();
      F.Cid = Cid++;
      {
        std::lock_guard<std::mutex> L(OutMutex);
        Outstanding.emplace(F.Cid, At);
      }
      if (!Cl.send(F)) {
        std::lock_guard<std::mutex> L(OutMutex);
        Outstanding.erase(F.Cid);
        ++Errors;
        break; // Connection gone; the point still reports partial data.
      }
      ++Sent;
    }
  }

  void recvLoop() {
    net::Frame F;
    while (Cl.recv(F)) {
      Clock::time_point ScheduledAt;
      {
        std::lock_guard<std::mutex> L(OutMutex);
        auto It = Outstanding.find(F.Cid);
        if (It == Outstanding.end())
          continue;
        ScheduledAt = It->second;
        Outstanding.erase(It);
      }
      ++Done;
      switch (F.status()) {
      case net::Status::Ok:
      case net::Status::NotFound:
      case net::Status::Mismatch:
        ++Good;
        Hist.record(uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                 Clock::now() - ScheduledAt)
                                 .count()));
        break;
      case net::Status::Overloaded:
      case net::Status::DeadlineExceeded:
        ++Shed;
        break;
      case net::Status::DurabilityLost:
        // The mutation committed in memory but the WAL is degraded: the
        // server kept serving instead of blocking, and said so. Neither
        // good (the durability promise broke) nor shed (it executed).
        ++DurLost;
        break;
      default:
        ++Errors;
        break;
      }
    }
  }

  net::Frame makeRequest() {
    net::Frame F;
    unsigned Roll = unsigned(Ops.nextBelow(100));
    uint64_t K = Gen.next();
    if (Roll < C.M.Get) {
      F.Op = net::MsgOp::Get;
      F.Count = 1;
      F.Words = 1;
      F.Body[0] = K;
    } else if (Roll < C.M.Get + C.M.Put) {
      F.Op = net::MsgOp::Put;
      F.Count = 1;
      F.Words = 2;
      F.Body[0] = K;
      F.Body[1] = Ops.next() >> 1; // Never Tombstone.
    } else if (Roll < C.M.Get + C.M.Put + C.M.Mget) {
      F.Op = net::MsgOp::MultiGet;
      F.Count = uint16_t(C.MgetKeys);
      F.Words = C.MgetKeys;
      for (uint32_t I = 0; I < C.MgetKeys; ++I)
        F.Body[I] = Gen.next();
    } else if (Roll < C.M.Get + C.M.Put + C.M.Mget + C.M.Rmw) {
      F.Op = net::MsgOp::Rmw;
      F.Count = 2;
      F.Words = 3;
      F.Body[0] = K;
      F.Body[1] = Gen.next();
      F.Body[2] = 1; // Delta.
    } else {
      F.Op = net::MsgOp::Cas;
      F.Count = 1;
      F.Words = 3;
      F.Body[0] = K;
      F.Body[1] = 1000;
      F.Body[2] = 1001;
    }
    return F;
  }

  const GenConfig &C;
  const double Rate;
  net::Client Cl;
  KeyGenerator Gen;
  Rng Ops;
  std::thread Sender, Receiver;
  std::mutex OutMutex;
  std::unordered_map<uint64_t, Clock::time_point> Outstanding;
};

struct PointResult {
  double Offered = 0;
  uint64_t Sent = 0, Done = 0, Good = 0, Shed = 0, Errors = 0;
  uint64_t DurLost = 0;      ///< DurabilityLost acks (degraded WAL).
  uint64_t ProbeRetries = 0; ///< Idempotent reconnect-resends (--retries).
  double Seconds = 0;
  LatencyHistogram Hist;
  double BatchAvg = 0; ///< Server-side, from STATS deltas.
  double goodput() const { return Seconds > 0 ? double(Good) / Seconds : 0; }
  double shedRate() const {
    uint64_t Answered = Done;
    return Answered ? double(Shed) / double(Answered) : 0;
  }
};

/// Runs one open-loop point at \p Qps for C.DurationS seconds.
bool runPoint(const GenConfig &C, double Qps, PointResult &R) {
  uint64_t Before[net::StatsWordCount] = {}, After[net::StatsWordCount] = {};
  net::Client Probe;
  if (C.Retries) {
    net::RetryPolicy P;
    P.Retries = C.Retries;
    Probe.setRetryPolicy(P);
  }
  std::string Err;
  if (!Probe.connectTo(C.Host, C.Port, &Err)) {
    std::fprintf(stderr, "kv_loadgen: %s\n", Err.c_str());
    return false;
  }
  bool HaveStats = Probe.statsProbe(Before);

  std::vector<std::unique_ptr<ConnDriver>> Drivers;
  for (unsigned I = 0; I < C.Conns; ++I) {
    Drivers.push_back(
        std::make_unique<ConnDriver>(C, I, Qps / double(C.Conns)));
    if (!Drivers.back()->connect())
      return false;
  }
  Clock::time_point Start = Clock::now() + std::chrono::milliseconds(20);
  Clock::time_point Stop =
      Start + std::chrono::nanoseconds(uint64_t(C.DurationS * 1e9));
  for (auto &D : Drivers)
    D->start(Start, Stop);
  for (auto &D : Drivers)
    D->finish();

  if (HaveStats && Probe.statsProbe(After)) {
    uint64_t DB = After[net::StatBatches] - Before[net::StatBatches];
    uint64_t DO_ = After[net::StatBatchedOps] - Before[net::StatBatchedOps];
    R.BatchAvg = DB ? double(DO_) / double(DB) : 0;
    if (After[net::StatWalDegraded])
      std::fprintf(stderr, "kv_loadgen: server WAL is degraded (%" PRIu64
                           " redo records dropped)\n",
                   After[net::StatWalDroppedRecords]);
  }
  R.ProbeRetries = Probe.retriesPerformed();
  Probe.close();

  R.Offered = Qps;
  R.Seconds = C.DurationS;
  for (auto &D : Drivers) {
    R.Sent += D->Sent;
    R.Done += D->Done;
    R.Good += D->Good;
    R.Shed += D->Shed;
    R.Errors += D->Errors;
    R.DurLost += D->DurLost;
    R.Hist += D->Hist;
  }
  return true;
}

bool readPortFile(const std::string &Path, uint16_t &Port) {
  // The server renames the file into place after binding; poll briefly.
  for (int I = 0; I < 200; ++I) {
    if (FILE *F = std::fopen(Path.c_str(), "r")) {
      unsigned P = 0;
      int N = std::fscanf(F, "%u", &P);
      std::fclose(F);
      if (N == 1 && P > 0 && P < 65536) {
        Port = uint16_t(P);
        return true;
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  return false;
}

} // namespace

int main(int argc, char **argv) {
  GenConfig C;
  for (int I = 1; I < argc; ++I) {
    const char *A = argv[I];
    auto Val = [&](const char *Prefix) -> const char * {
      size_t N = std::strlen(Prefix);
      return std::strncmp(A, Prefix, N) ? nullptr : A + N;
    };
    const char *V;
    if ((V = Val("--host=")))
      C.Host = V;
    else if ((V = Val("--port=")))
      C.Port = uint16_t(std::atoi(V));
    else if ((V = Val("--port-file=")))
      C.PortFile = V;
    else if ((V = Val("--qps=")))
      C.Qps = std::atof(V);
    else if ((V = Val("--sweep="))) {
      // lo:hi:steps — geometric ladder of offered rates.
      double Lo = 0, Hi = 0;
      unsigned Steps = 0;
      if (std::sscanf(V, "%lf:%lf:%u", &Lo, &Hi, &Steps) != 3 || Lo <= 0 ||
          Hi < Lo || Steps < 2) {
        std::fprintf(stderr, "kv_loadgen: --sweep needs lo:hi:steps\n");
        return 2;
      }
      C.Qps = Lo;
      C.SweepHi = Hi;
      C.SweepSteps = Steps;
    } else if ((V = Val("--duration=")))
      C.DurationS = std::atof(V);
    else if ((V = Val("--conns=")))
      C.Conns = unsigned(std::atoi(V));
    else if ((V = Val("--keys=")))
      C.Keys = uint64_t(std::atoll(V));
    else if ((V = Val("--dist="))) {
      if (!std::strcmp(V, "zipf"))
        C.Dist = KeyGenerator::Dist::Zipfian;
      else if (!std::strcmp(V, "uniform"))
        C.Dist = KeyGenerator::Dist::Uniform;
      else {
        std::fprintf(stderr, "kv_loadgen: --dist must be zipf or uniform\n");
        return 2;
      }
    } else if ((V = Val("--theta=")))
      C.Theta = std::atof(V);
    else if ((V = Val("--mix="))) {
      if (!parseMix(V, C.M)) {
        std::fprintf(stderr, "kv_loadgen: bad --mix (need "
                             "get:N,put:N,mget:N,rmw:N,cas:N summing 100)\n");
        return 2;
      }
    } else if ((V = Val("--mget-keys=")))
      C.MgetKeys = uint32_t(std::atoi(V));
    else if ((V = Val("--seed=")))
      C.Seed = uint64_t(std::atoll(V));
    else if ((V = Val("--slo-us=")))
      C.SloUs = uint64_t(std::atoll(V));
    else if ((V = Val("--json=")))
      C.JsonPath = V;
    else if ((V = Val("--tag=")))
      C.Tag = V;
    else if ((V = Val("--mode="))) {
      if (std::strcmp(V, "full") && std::strcmp(V, "smoke")) {
        std::fprintf(stderr, "kv_loadgen: --mode must be full or smoke\n");
        return 2;
      }
      C.Mode = V;
    } else if ((V = Val("--retries=")))
      C.Retries = uint32_t(std::atoi(V));
    else if (!std::strcmp(A, "--stop-server"))
      C.StopServer = true;
    else {
      std::fprintf(
          stderr,
          "usage: kv_loadgen (--qps=Q | --sweep=lo:hi:steps) [--duration=S]\n"
          "                  [--host=A] [--port=P | --port-file=PATH]\n"
          "                  [--conns=N] [--keys=N] [--dist=zipf|uniform]\n"
          "                  [--theta=T] [--mix=get:N,put:N,mget:N,rmw:N,"
          "cas:N]\n"
          "                  [--mget-keys=N] [--seed=N] [--slo-us=N]\n"
          "                  [--json=PATH] [--tag=NAME] [--mode=full|smoke]\n"
          "                  [--retries=N] [--stop-server]\n");
      return 2;
    }
  }

  if (!(C.Qps > 0)) {
    // --sweep sets Qps to its floor.
    std::fprintf(stderr, "kv_loadgen: --qps or --sweep is required: the "
                         "load is open-loop by construction\n");
    return 2;
  }
  if (!C.PortFile.empty() && !readPortFile(C.PortFile, C.Port)) {
    std::fprintf(stderr, "kv_loadgen: no port in %s (server not up?)\n",
                 C.PortFile.c_str());
    return 1;
  }
  if (C.Port == 0) {
    std::fprintf(stderr, "kv_loadgen: need --port or --port-file\n");
    return 2;
  }
  if (C.MgetKeys > net::MaxKeysPerFrame)
    C.MgetKeys = net::MaxKeysPerFrame;

  // Offered-rate ladder: geometric from Qps to SweepHi, or the one point.
  std::vector<double> Rates;
  if (C.SweepSteps >= 2) {
    double Ratio = std::pow(C.SweepHi / C.Qps, 1.0 / (C.SweepSteps - 1));
    double Q = C.Qps;
    for (unsigned I = 0; I < C.SweepSteps; ++I, Q *= Ratio)
      Rates.push_back(Q);
  } else {
    Rates.push_back(C.Qps);
  }

  std::printf("kv_loadgen: %s:%u, %u conns, %.1fs/point, mix %s, "
              "slo p99<%" PRIu64 "us\n",
              C.Host.c_str(), unsigned(C.Port), C.Conns, C.DurationS,
              C.M.str().c_str(), C.SloUs);
  std::printf("%12s %12s %12s %9s %9s %9s %9s %7s %7s\n", "offered_qps",
              "goodput", "p50_us", "p95_us", "p99_us", "p999_us", "shed",
              "batch", "errs");

  std::vector<PointResult> Points;
  for (double Q : Rates) {
    PointResult R;
    if (!runPoint(C, Q, R))
      return 1;
    auto P = R.Hist.percentiles();
    std::printf("%12.0f %12.0f %12.1f %9.1f %9.1f %9.1f %6.2f%% %7.2f %7" PRIu64
                "\n",
                R.Offered, R.goodput(), P.P50 / 1e3, P.P95 / 1e3, P.P99 / 1e3,
                P.P999 / 1e3, 100 * R.shedRate(), R.BatchAvg, R.Errors);
    if (R.DurLost || R.ProbeRetries)
      std::printf("    durability_lost %" PRIu64 ", probe_retries %" PRIu64
                  "\n",
                  R.DurLost, R.ProbeRetries);
    std::fflush(stdout);
    Points.push_back(std::move(R));
  }

  // TailBench SLO capacity: highest offered rate whose p99 met the SLO
  // with a shed rate ≤ 1% (and actually answered its traffic).
  double SloCapacity = 0;
  for (const PointResult &R : Points) {
    if (R.Done == 0)
      continue;
    uint64_t P99 = R.Hist.valueAtPercentile(99);
    if (P99 <= C.SloUs * 1000 && R.shedRate() <= 0.01)
      SloCapacity = std::max(SloCapacity, R.Offered);
  }
  std::printf("slo_capacity: %.0f qps (p99 < %" PRIu64 " us, shed <= 1%%)\n",
              SloCapacity, C.SloUs);

  if (C.StopServer) {
    net::Client Stopper;
    std::string Err;
    if (Stopper.connectTo(C.Host, C.Port, &Err) && Stopper.shutdownServer())
      std::printf("kv_loadgen: server stopped\n");
    else
      std::fprintf(stderr, "kv_loadgen: shutdown request failed\n");
  }

  if (!C.JsonPath.empty()) {
    std::vector<BenchEntry> Entries;
    for (const PointResult &R : Points) {
      BenchEntry E;
      char Name[64];
      std::snprintf(Name, sizeof(Name), "net/%s_q%.0f", C.Tag.c_str(),
                    R.Offered);
      E.Name = Name;
      E.Ops = R.Done;
      // Throughput is goodput: shed and rejected answers are completed
      // responses but not served requests.
      E.NsPerOp = R.Good ? R.Seconds * 1e9 / double(R.Good) : 0;
      E.HasLatency = true;
      E.Latency = R.Hist.percentiles();
      E.OpsPerSec = R.goodput();
      E.HasNet = true;
      E.NetQpsOffered = R.Offered;
      E.NetGoodput = R.goodput();
      E.NetP99Ns = R.Hist.valueAtPercentile(99);
      E.NetSloCapacity = SloCapacity;
      E.NetShedRate = R.shedRate();
      E.NetBatchAvg = R.BatchAvg;
      Entries.push_back(std::move(E));
    }
    writeBenchJson(C.JsonPath.c_str(), C.Mode.c_str(), Entries);
    std::printf("wrote %s\n", C.JsonPath.c_str());
  }
  return 0;
}
