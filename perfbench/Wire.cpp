//===- perfbench/Wire.cpp - Workload wire_durable -------------------------===//
//
// Part of the SATM project, reproducing Shpeisman et al., PLDI 2007.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The served workload: the in-process net::Server over loopback, driven
/// by a net::Client connection from this same process. The WAL is
/// attached with asynchronous acks (a response leaves at commit; one drain
/// thread group-commits the log in the background with the default 1 ms
/// window), and a checkpoint runs every 100 000 WAL records (which turns
/// the snapshot plane on). PUT 40 / RMW 10 / CAS 5 / GET 40 / MGET(8) 5,
/// zipfian 0.99 over 64 Ki keys. Sync acks would put the shared virtual
/// disk's fsync latency into every figure; see perfbench/README.md.
///
/// Each run: set up the stack several times (setup_s is the median), then
/// phase A, an open loop of Poisson arrivals at a fixed rate well below
/// saturation, timed from each request's scheduled arrival; phase B, a
/// closed loop with a fixed pipelined window per connection, for
/// throughput; and phase C, stop and recover the run's WAL and checkpoints
/// into fresh stores, then verify them.
///
/// Output checks. Writes are partitioned by connection (a key is written
/// only by the connection that owns it), so each connection knows the
/// exact history of its keys: every value encodes its own key and a write
/// sequence number, and a GET/MGET must return a value no newer than the
/// key's last sent write and no older than its last acked write. At the
/// end every key must hold a value between its last acked and its last
/// sent write, and every ledger key (written only by RMW with positive
/// deltas) its initial value plus its acked deltas, plus at most the
/// deltas of RMWs whose outcome is unknown.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "kv/Checkpoint.h"
#include "kv/Wal.h"
#include "net/Client.h"
#include "net/Server.h"
#include "rt/Heap.h"
#include "stm/Config.h"
#include "stm/Snapshot.h"
#include "support/Rng.h"
#include "support/Zipf.h"

#include <sys/socket.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>
#include <thread>

using namespace perfbench;
using namespace satm;
namespace fs = std::filesystem;

namespace {

enum Kind : uint8_t { Put, Rmw, Cas, Get, Mget, NumKinds };
const char *const KindName[NumKinds] = {"PUT", "RMW", "CAS", "GET", "MGET"};
bool isRead(Kind K) { return K == Get || K == Mget; }
bool isWrite(Kind K) { return K == Put || K == Rmw || K == Cas; }

// The workload (perfbench/README.md).
constexpr uint64_t DataKeys = uint64_t(64) << 10;
constexpr uint64_t LedgerKeys = 1024;
constexpr Word LedgerInit = 1000000;
constexpr unsigned MgetKeys = 8;
/// Cumulative mix percentages, in Kind order.
constexpr unsigned MixUpTo[NumKinds] = {40, 50, 55, 95, 100};
constexpr const char *MixText =
    "put 40 / rmw(2) 10 / cas 5 / get 40 / mget(8) 5";
constexpr double RateA = 5000;   ///< Phase A arrivals per second.
constexpr double ShareA = 0.75;  ///< Phase A's share of the run.
constexpr unsigned WindowB = 16; ///< Phase B requests in flight per conn.
constexpr uint64_t CheckpointEvery = 100000; ///< WAL records.
constexpr unsigned SetupRepeats = 9; ///< setup_s is the median of these.
constexpr unsigned RecoveryRepeats = 3;

/// Answers still missing this long after a phase's last send are failures.
constexpr int64_t DrainNs = 2000000000;
/// Phase B's traced windows record spans for one request in this many, and
/// for at most ClosedLoopTracedMax requests per connection, which bounds
/// trace memory at saturation.
constexpr uint64_t ClosedLoopSpanStride = 8;
constexpr size_t ClosedLoopTracedMax = size_t(1) << 16;
/// In-flight request slots per connection (cids map onto them): over
/// three seconds of phase A arrivals, beyond the drain deadline.
constexpr uint64_t RingSlots = 1 << 14;

/// Per-key write history, each entry written only by the key's owning
/// connection thread and read by others only after that thread joined.
struct Book {
  std::vector<uint64_t> LastSent, LastAcked; ///< Seq, per data key.
  std::vector<uint64_t> Acked, Unknown;      ///< Delta sums, per ledger key.
  std::atomic<uint64_t> Seq{0};              ///< Global write sequence.
};

struct Slot {
  uint64_t Cid = 0; ///< 0: free.
  Kind K = Get;
  bool Traced = false;
  uint8_t NKeys = 0;
  Word Keys[MgetKeys] = {};
  uint64_t Floor[MgetKeys] = {}; ///< Reads: last acked seq at send.
  uint64_t Arg = 0;              ///< Writes: seq; RMW: delta.
  RequestTimes T;
};

/// One measured phase's findings on one connection.
struct PhaseOut {
  std::vector<double> Lat, Read, Write, Late, Send, Rtt; ///< us.
  uint64_t Answered = 0;
  std::vector<uint64_t> WindowDone; ///< Phase B answers per window.
  uint64_t UserKeysWritten = 0; ///< Acked (key, value) mutations.
  FailureTally Tally;
  std::vector<std::string> Violations;
  int64_t CpuNs = 0; ///< Open loop: this driver thread's CPU time.
};

class Conn {
public:
  Conn(Book &B, unsigned Index, unsigned Count, uint64_t Seed)
      : B(B), Index(Index), Count(Count), R(Seed),
        Keys(KeyGenerator::Dist::Zipfian, DataKeys, Seed ^ 0x5eed),
        Spans(uint64_t(Index + 1) << 48), Ring(RingSlots) {}

  bool open(uint16_t Port, std::string *Err) {
    return C.connectTo("127.0.0.1", Port, Err);
  }
  void close() { C.close(); }
  const std::vector<Span> &spans() const { return Spans.Spans; }
  /// Makes room for the spans of \p Requests traced requests up front, so
  /// recording one never reallocates on the timed path.
  void reserveSpans(size_t Requests) {
    Spans.Spans.reserve(Spans.Spans.size() + 4 * Requests);
  }

  /// Open loop: sends at Start + Sched[i], then drains. In trace mode
  /// every other request is traced, and only the untraced ones are
  /// latency samples.
  void openLoop(const std::vector<int64_t> &Sched, int64_t Start,
                bool Trace, PhaseOut &O);
  /// Closed loop: keeps Window requests in flight until End, then drains.
  /// Answers are counted per throughput window; in trace mode the odd
  /// windows are traced.
  void closedLoop(unsigned Window, int64_t Start, int64_t End,
                  unsigned Windows, bool Trace, PhaseOut &O);

private:
  Word own(uint64_t Draw, uint64_t N) const {
    Word K = Draw - Draw % Count + Index;
    return K < N ? K : K - Count;
  }
  void send(int64_t Sched, bool Traced, PhaseOut &O);
  void answer(const net::Frame &F, PhaseOut &O);
  void finish(Slot &S, Outcome Out, PhaseOut &O);
  /// Waits for input until \p Until (ns) and handles the answers in the
  /// first read that brings any. Marks the connection dead on EOF or error.
  void pump(int64_t Until, PhaseOut &O);
  void failOutstanding(Outcome Out, PhaseOut &O);
  bool checkValue(Word Key, Word V, uint64_t Floor, PhaseOut &O);

  Book &B;
  unsigned Index, Count;
  Rng R;
  KeyGenerator Keys;
  SpanLog Spans;
  net::Client C;
  net::FrameDecoder Dec{/*Strict=*/false};
  std::vector<Slot> Ring;
  uint64_t NextCid = 1;
  uint64_t Outstanding = 0;
  bool Dead = false;
  int64_t WinStart = -1; ///< Closed loop: origin of the windows.
  int64_t WinLen = 1;
};

Outcome outcomeOf(net::Status S) {
  switch (S) {
  case net::Status::Ok:
    return Outcome::Ok;
  case net::Status::NotFound:
    return Outcome::NotFound;
  case net::Status::Mismatch:
    return Outcome::Mismatch;
  case net::Status::Overloaded:
    return Outcome::Overloaded;
  case net::Status::DeadlineExceeded:
    return Outcome::DeadlineExceeded;
  case net::Status::DurabilityLost:
    return Outcome::DurabilityLost;
  default:
    return Outcome::Refused;
  }
}

void Conn::send(int64_t Sched, bool Traced, PhaseOut &O) {
  uint64_t Cid = NextCid++;
  Slot &S = Ring[Cid % RingSlots];
  if (S.Cid) // Unanswered for RingSlots requests.
    finish(S, Outcome::NoAnswer, O);
  S = Slot();
  S.Cid = Cid;
  S.Traced = Traced;
  unsigned P = unsigned(R.nextBelow(100)), K = 0;
  while (P >= MixUpTo[K])
    ++K;
  S.K = Kind(K);

  net::Frame F;
  F.Cid = Cid;
  switch (S.K) {
  case Get:
  case Mget:
    F.Op = S.K == Get ? net::MsgOp::Get : net::MsgOp::MultiGet;
    S.NKeys = S.K == Get ? 1 : MgetKeys;
    for (unsigned I = 0; I < S.NKeys; ++I) {
      S.Keys[I] = own(Keys.next(), DataKeys);
      S.Floor[I] = B.LastAcked[S.Keys[I]];
      F.Body[I] = S.Keys[I];
    }
    F.Count = S.NKeys;
    F.Words = S.NKeys;
    break;
  case Put:
  case Cas: {
    Word Key = own(Keys.next(), DataKeys);
    uint64_t Seq = B.Seq.fetch_add(1, std::memory_order_relaxed) + 1;
    S.NKeys = 1;
    S.Keys[0] = Key;
    S.Arg = Seq;
    F.Count = 1;
    F.Body[0] = Key;
    if (S.K == Put) {
      F.Op = net::MsgOp::Put;
      F.Body[1] = encodeValue(Key, Seq);
      F.Words = 2;
    } else {
      F.Op = net::MsgOp::Cas;
      F.Body[1] = encodeValue(Key, B.LastSent[Key]);
      F.Body[2] = encodeValue(Key, Seq);
      F.Words = 3;
    }
    B.LastSent[Key] = Seq;
    break;
  }
  case Rmw: {
    uint64_t L = LedgerKeys;
    Word J0 = own(R.nextBelow(L), L), J1;
    do // Two distinct keys: rmwAdd applies a delta once per key.
      J1 = own(R.nextBelow(L), L);
    while (J1 == J0);
    S.NKeys = 2;
    S.Keys[0] = DataKeys + J0;
    S.Keys[1] = DataKeys + J1;
    S.Arg = 1 + R.nextBelow(100);
    F.Op = net::MsgOp::Rmw;
    F.Count = 2;
    F.Body[0] = S.Keys[0];
    F.Body[1] = S.Keys[1];
    F.Body[2] = S.Arg;
    F.Words = 3;
    break;
  }
  default:
    break;
  }

  S.T.Sched = Sched;
  S.T.SendStart = nowNs();
  bool Sent = !Dead && C.send(F) == Cid;
  S.T.SendEnd = nowNs();
  ++Outstanding;
  if (!Sent) {
    Dead = true;
    finish(S, Outcome::ConnectionLost, O);
  }
}

bool Conn::checkValue(Word Key, Word V, uint64_t Floor, PhaseOut &O) {
  uint64_t Seq = valueSeq(V);
  if (valueKey(V) == Key && Seq >= Floor && Seq <= B.LastSent[Key])
    return true;
  O.Violations.push_back(
      "key " + std::to_string(Key) + " read value of key " +
      std::to_string(valueKey(V)) + " seq " + std::to_string(Seq) +
      ", expected seq in [" + std::to_string(Floor) + ", " +
      std::to_string(B.LastSent[Key]) + "]");
  return false;
}

void Conn::finish(Slot &S, Outcome Out, PhaseOut &O) {
  O.Tally.add(Out);
  if (S.K == Rmw && isFailure(Out))
    for (unsigned I = 0; I < 2; ++I)
      B.Unknown[S.Keys[I] - DataKeys] += S.Arg;
  S.Cid = 0;
  --Outstanding;
}

void Conn::answer(const net::Frame &F, PhaseOut &O) {
  Slot &S = Ring[F.Cid % RingSlots];
  if (S.Cid != F.Cid)
    return; // Already written off as unanswered.
  S.T.Done = nowNs();
  Outcome Out = outcomeOf(F.status());
  if (Out == Outcome::Ok) {
    switch (S.K) {
    case Get:
    case Mget:
      if (F.Words != S.NKeys) {
        O.Violations.push_back(std::string(KindName[S.K]) +
                               " answer has the wrong value count");
        break;
      }
      for (unsigned I = 0; I < S.NKeys; ++I)
        if (!checkValue(S.Keys[I], F.Body[I], S.Floor[I], O))
          break;
      break;
    case Put:
    case Cas:
      B.LastAcked[S.Keys[0]] = std::max(B.LastAcked[S.Keys[0]], S.Arg);
      O.UserKeysWritten += 1;
      break;
    case Rmw:
      for (unsigned I = 0; I < 2; ++I)
        B.Acked[S.Keys[I] - DataKeys] += S.Arg;
      O.UserKeysWritten += 2;
      break;
    default:
      break;
    }
  } else if (Out == Outcome::NotFound || (Out == Outcome::Mismatch &&
                                          S.K != Cas)) {
    O.Violations.push_back(std::string(KindName[S.K]) + " answered " +
                           net::statusName(F.status()) +
                           " on a prepopulated key");
  }

  ++O.Answered;
  if (WinStart >= 0) { // Closed loop: count throughput only.
    int64_t W = (S.T.Done - WinStart) / WinLen;
    if (W >= 0 && W < int64_t(O.WindowDone.size()))
      O.WindowDone[W]++;
  } else if (!S.Traced) {
    double LatUs = double(S.T.latency()) / 1e3;
    O.Lat.push_back(LatUs);
    if (isRead(S.K))
      O.Read.push_back(LatUs);
    if (isWrite(S.K))
      O.Write.push_back(LatUs);
    O.Late.push_back(double(S.T.late()) / 1e3);
    O.Send.push_back(double(S.T.send()) / 1e3);
    O.Rtt.push_back(double(S.T.rtt()) / 1e3);
  }
  if (S.Traced)
    Spans.addRequest((uint64_t(Index + 1) << 48) | S.Cid, S.T);
  finish(S, Out, O);
}

void Conn::pump(int64_t Until, PhaseOut &O) {
  // Spins rather than sleeping: each driver thread owns a CPU (admitLoad
  // counts it), and a sleeping thread's wake-up on a virtual CPU would be
  // charged to the system. Against a ppoll() loop on a 4-vCPU host this
  // cut the generator's lateness p99 from ~90 to ~15 us and steadied p50
  // and p90 (perfbench/README.md).
  uint8_t Buf[1 << 16];
  while (!Dead) {
    ssize_t N = ::recv(C.fd(), Buf, sizeof(Buf), MSG_DONTWAIT);
    if (N > 0) {
      Dec.feed(Buf, size_t(N));
      net::Frame F;
      while (Dec.next(F))
        answer(F, O);
      if (Dec.failed())
        Dead = true;
      return;
    }
    if (N < 0 && errno == EINTR)
      continue;
    if (N == 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) {
      Dead = true; // EOF or error.
      return;
    }
    if (nowNs() >= Until)
      return;
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
  }
}

void Conn::failOutstanding(Outcome Out, PhaseOut &O) {
  for (Slot &S : Ring)
    if (S.Cid)
      finish(S, Out, O);
}

void Conn::openLoop(const std::vector<int64_t> &Sched, int64_t Start,
                    bool Trace, PhaseOut &O) {
  int64_t Cpu0 = threadCpuNs();
  size_t Next = 0;
  int64_t DrainEnd = Start + (Sched.empty() ? 0 : Sched.back()) + DrainNs;
  while (!Dead) {
    int64_t Now = nowNs();
    while (Next < Sched.size() && Start + Sched[Next] <= Now) {
      send(Start + Sched[Next], Trace && Next % 2 == 1, O);
      ++Next;
    }
    if (Next == Sched.size() && (Outstanding == 0 || Now >= DrainEnd))
      break;
    pump(Next < Sched.size() ? Start + Sched[Next] : DrainEnd, O);
  }
  for (; Next < Sched.size(); ++Next) // Never sent: the connection died.
    O.Tally.add(Outcome::ConnectionLost);
  failOutstanding(Dead ? Outcome::ConnectionLost : Outcome::NoAnswer, O);
  O.CpuNs += threadCpuNs() - Cpu0;
}

void Conn::closedLoop(unsigned Window, int64_t Start, int64_t End,
                      unsigned Windows, bool Trace, PhaseOut &O) {
  WinStart = Start;
  WinLen = (End - Start) / Windows;
  O.WindowDone.assign(Windows, 0);
  while (!Dead) {
    int64_t Now = nowNs();
    if (Now < End) {
      while (Outstanding < Window && !Dead) {
        int64_t T = nowNs();
        bool Traced = Trace && ((T - Start) / WinLen) % 2 == 1 &&
                      NextCid % ClosedLoopSpanStride == 0 &&
                      Spans.Spans.size() + 4 <= Spans.Spans.capacity();
        send(T, Traced, O);
      }
    } else if (Outstanding == 0 || Now >= End + DrainNs) {
      break;
    }
    pump(Now < End ? End : End + DrainNs, O);
  }
  failOutstanding(Dead ? Outcome::ConnectionLost : Outcome::NoAnswer, O);
  WinStart = -1;
}

/// The served stack, torn down in the order DESIGN.md §13 gives: server
/// first (drains its queues), then checkpointer, then the WAL.
struct Stack {
  rt::Heap H;
  kv::Store S;
  std::optional<kv::Wal> W;
  std::optional<kv::Checkpointer> CP;
  std::optional<net::Server> Sv;

  explicit Stack(const kv::StoreConfig &C) : S(H, C) {}
  ~Stack() { stop(); }
  void stop() {
    if (Sv)
      Sv->stop();
    if (CP)
      CP->stop();
    S.attachWal(nullptr);
    if (W)
      W->stop();
  }
};

uint64_t dirBytes(const std::string &Dir) {
  uint64_t N = 0;
  std::error_code Ec;
  for (const auto &E : fs::directory_iterator(Dir, Ec))
    if (E.is_regular_file(Ec))
      N += E.file_size(Ec);
  return N;
}

std::vector<double> merged(std::vector<PhaseOut> &Outs,
                           std::vector<double> PhaseOut::*Field) {
  std::vector<double> V;
  for (PhaseOut &O : Outs)
    V.insert(V.end(), (O.*Field).begin(), (O.*Field).end());
  return V;
}

} // namespace

int perfbench::runWireDurable(const Args &A, Report &R) {
  const unsigned Io = 1, Workers = 1, Drainers = 1;
  // One driver thread and connection: a spinning driver thread owns its
  // CPU, and with every CPU busy a wake-up of the server's sleeping I/O
  // thread or worker waits for a preempted thread (perfbench/README.md).
  const unsigned D = 1;
  unsigned Cpus = hostCpus();
  if (!admitLoad(R, D, Io, Workers, Drainers, D))
    return 2;
  R.contextStr("mix", MixText);
  R.contextStr("keys", "zipfian 0.99 over " + std::to_string(DataKeys) +
                           " data keys; rmw over " +
                           std::to_string(LedgerKeys) + " ledger keys");
  R.context("phase_a_rate_ops_s", RateA);
  R.contextStr("phase_a", "open loop, Poisson arrivals, latency from the "
                          "scheduled arrival");
  R.context("phase_b_window_per_conn", WindowB);
  R.contextStr("phase_b", "closed loop, fixed pipelined window");
  R.contextStr("flush_policy",
               "async acks (at commit), WAL flushed at stop; 1 WAL drain "
               "thread; 1000 us group-commit window; checkpoint every " +
                   std::to_string(CheckpointEvery) + " WAL records");

  stm::Config Base;
  Base.DeaEnabled = true;
  stm::ScopedConfig SC(Base);

  std::string WalDir = A.Scratch + "/wal-" + std::to_string(::getpid());
  kv::Wal::Config WC;
  WC.Dir = WalDir;
  kv::StoreConfig KC = storeConfigFor(DataKeys + LedgerKeys);
  WC.Shards = KC.Shards;
  auto Initial = [](Word K) {
    return K < DataKeys ? encodeValue(K, 0) : LedgerInit;
  };

  SpanLog Setup(uint64_t(1) << 60);
  std::vector<double> SetupS, PrepopS, ServerS, ConnectS;
  std::unique_ptr<Stack> St;
  Book B;
  std::vector<std::unique_ptr<Conn>> Conns;
  for (unsigned Rep = 0; Rep < SetupRepeats; ++Rep) {
    for (auto &C : Conns)
      C->close();
    Conns.clear();
    St.reset();
    stm::snap::resetTable();
    stm::config() = Base;
    std::error_code Ec;
    fs::remove_all(WalDir, Ec);
    struct StepTime {
      const char *Name;
      int64_t Start, End;
    };
    std::vector<StepTime> Steps;
    auto Step = [&](const char *Name, int64_t T0) {
      Steps.push_back({Name, T0, nowNs()});
    };

    int64_t T0 = nowNs();
    St = std::make_unique<Stack>(KC);
    Step("kv.store.build", T0);
    int64_t T1 = nowNs();
    if (!prepopulate(St->S, 0, DataKeys + LedgerKeys, Initial, Cpus)) {
      std::fprintf(stderr, "wire_durable: prepopulate overflowed a shard\n");
      return 2;
    }
    Step("kv.store.prepopulate", T1);
    int64_t T2 = nowNs();
    net::ServerConfig NC;
    NC.IoThreads = Io;
    NC.Workers = Workers;
    // The checkpointer's store scan pins a snapshot epoch.
    stm::Config Snap = Base;
    Snap.SnapshotEnabled = true;
    stm::config() = Snap;
    int64_t TW = nowNs();
    St->W.emplace(WC);
    St->W->start();
    St->S.attachWal(&*St->W);
    Step("kv.wal.start", TW);
    int64_t TC = nowNs();
    kv::Checkpointer::Config CC;
    CC.IntervalOps = CheckpointEvery;
    St->CP.emplace(St->S, *St->W, CC);
    St->CP->start();
    Step("kv.ckpt.start", TC);
    NC.StatsWal = &*St->W;
    int64_t T3 = nowNs();
    St->Sv.emplace(St->S, NC);
    std::string Err;
    if (!St->Sv->start(&Err)) {
      std::fprintf(stderr, "wire_durable: server start failed: %s\n",
                   Err.c_str());
      return 2;
    }
    Step("net.server.start", T3);
    int64_t T4 = nowNs();
    if (Rep == 0) {
      B.LastSent.assign(DataKeys, 0);
      B.LastAcked.assign(DataKeys, 0);
      B.Acked.assign(LedgerKeys, 0);
      B.Unknown.assign(LedgerKeys, 0);
    }
    for (unsigned I = 0; I < D; ++I) {
      Conns.push_back(std::make_unique<Conn>(
          B, I, D, A.Seed * 0x9e3779b97f4a7c15ull + I));
      if (!Conns.back()->open(St->Sv->port(), &Err)) {
        std::fprintf(stderr, "wire_durable: connect failed: %s\n",
                     Err.c_str());
        return 2;
      }
    }
    int64_t T5 = nowNs();
    Step("net.connect", T4);
    if (A.Trace && Rep + 1 == SetupRepeats) {
      uint64_t Root = Setup.add(0, 0, "setup", T0, T5);
      for (const StepTime &S : Steps)
        Setup.add(Root, 0, S.Name, S.Start, S.End);
    }
    SetupS.push_back(double(T5 - T0) / 1e9);
    PrepopS.push_back(double(T2 - T1) / 1e9);
    ServerS.push_back(double(T4 - T3) / 1e9);
    ConnectS.push_back(double(T5 - T4) / 1e9);
  }

  resetPeakRss();
  stm::StatsCounters Stm0 = stm::statsSnapshot();
  net::ServerStats Net0 = St->Sv->stats();
  kv::WalStats Wal0 = St->W->stats();
  int64_t Window0 = nowNs();
  HostTicks Host0 = hostTicks();

  // Phase A: open loop at the fixed rate.
  const double Sec = A.Seconds;
  const int64_t DurA = int64_t(Sec * ShareA * 1e9);
  const int64_t DurB = int64_t(Sec * 1e9) - DurA;
  const unsigned WindowsB = throughputWindows(double(DurB) / 1e9);
  std::vector<std::vector<int64_t>> Scheds(D);
  for (unsigned I = 0; I < D; ++I) {
    Rng SR(A.Seed * 0x2545f4914f6cdd1dull + I);
    Scheds[I] = poissonSchedule(RateA / D, DurA,
                                [&SR] { return SR.nextDouble(); });
  }
  std::vector<PhaseOut> OutA(D), OutB(D);
  if (A.Trace)
    for (unsigned I = 0; I < D; ++I)
      Conns[I]->reserveSpans(Scheds[I].size() / 2 + ClosedLoopTracedMax);
  int64_t MainCpu0 = threadCpuNs(), Proc0 = processCpuNs();
  int64_t StartA = nowNs() + 5000000;
  runThreads(D, [&](unsigned I) {
    Conns[I]->openLoop(Scheds[I], StartA, A.Trace, OutA[I]);
  });
  int64_t Proc1 = processCpuNs(), MainCpu1 = threadCpuNs();

  // Phase B: closed loop, a fixed window per connection.
  int64_t StartB = nowNs() + 5000000, EndB = StartB + DurB;
  runThreads(D, [&](unsigned I) {
    Conns[I]->closedLoop(WindowB, StartB, EndB, WindowsB, A.Trace, OutB[I]);
  });
  double WindowSec = double(nowNs() - Window0) / 1e9;
  double PeakRss = peakRssMb(); // Before recovery and aggregation.
  R.context("host_steal_share", stealShare(Host0, hostTicks()));

  for (auto &C : Conns)
    C->close();
  St->stop();
  stm::StatsCounters StmD = stm::statsSnapshot();
  StmD -= Stm0;
  net::ServerStats Net1 = St->Sv->stats();
  kv::WalStats WalD = St->W->stats();
  kv::CheckpointStats Ck = St->CP->stats();
  kv::Store::ReclaimStats RS = St->S.reclaimStats();
  double HeapMb = double(St->H.bytesAllocated()) / (1 << 20);

  // Output check on the final state, as recovered.
  auto CheckFinal = [&](kv::Store &S) {
    uint64_t Bad = 0;
    for (Word K = 0; K < DataKeys + LedgerKeys; ++K) {
      Word V = 0;
      bool Found = S.get(K, V);
      bool Ok;
      if (K < DataKeys)
        Ok = Found && valueKey(V) == K && valueSeq(V) >= B.LastAcked[K] &&
             valueSeq(V) <= B.LastSent[K];
      else
        Ok = Found && V >= LedgerInit + B.Acked[K - DataKeys] &&
             V <= LedgerInit + B.Acked[K - DataKeys] +
                      B.Unknown[K - DataKeys];
      if (!Ok && ++Bad <= 5)
        R.violation("recovered store: key " + std::to_string(K) +
                    " holds " + (Found ? std::to_string(V) : "nothing") +
                    " outside its acked..sent window");
    }
  };

  uint64_t WalBytes = WalD.BytesWritten - Wal0.BytesWritten;
  double DiskPerLive =
      double(dirBytes(WalDir)) / double((DataKeys + LedgerKeys) * 16);
  St.reset();
  stm::snap::resetTable();
  // Phase C: recover the run's WAL and checkpoints into fresh stores.
  std::vector<double> RecoverS, RecoverMs;
  kv::RecoveryStats Rec;
  for (unsigned Rep = 0; Rep < RecoveryRepeats; ++Rep) {
    auto RSt = std::make_unique<Stack>(KC);
    prepopulate(RSt->S, 0, DataKeys + LedgerKeys, Initial, Cpus);
    kv::Wal RW(WC);
    int64_t T0 = nowNs();
    Rec = RW.recover(RSt->S);
    int64_t T1 = nowNs();
    if (A.Trace && Rep == 0)
      Setup.add(0, 0, "kv.wal.recover", T0, T1);
    RecoverS.push_back(double(T1 - T0) / 1e9);
    RecoverMs.push_back(Rec.Millis);
    if (Rec.ApplyFailures || !Rec.ReclaimIdentityOk)
      R.violation("recovery reported " + std::to_string(Rec.ApplyFailures) +
                  " apply failures");
    if (Rep == 0)
      CheckFinal(RSt->S);
    RSt.reset();
    stm::snap::resetTable();
  }
  std::error_code Ec;
  fs::remove_all(WalDir, Ec);

  // Aggregate.
  uint64_t AnsweredA = 0, UserKeys = 0;
  for (std::vector<PhaseOut> *Outs : {&OutA, &OutB})
    for (PhaseOut &O : *Outs) {
      R.Failures += O.Tally;
      UserKeys += O.UserKeysWritten;
      for (const std::string &V : O.Violations)
        R.violation(V);
    }
  int64_t DriverCpuA = MainCpu1 - MainCpu0;
  for (PhaseOut &O : OutA) {
    AnsweredA += O.Answered;
    DriverCpuA += O.CpuNs;
  }
  std::vector<double> Untraced, Traced; // Throughput of each window.
  double WinSec = double(DurB / WindowsB) / 1e9, PhaseBOps = 0;
  for (unsigned I = 0; I < WindowsB; ++I) {
    uint64_t N = 0;
    for (PhaseOut &O : OutB)
      N += O.WindowDone[I];
    PhaseBOps += double(N);
    (A.Trace && I % 2 ? Traced : Untraced).push_back(double(N) / WinSec);
  }

  std::vector<double> Lat = merged(OutA, &PhaseOut::Lat),
                      Read = merged(OutA, &PhaseOut::Read),
                      Write = merged(OutA, &PhaseOut::Write),
                      Late = merged(OutA, &PhaseOut::Late),
                      Send = merged(OutA, &PhaseOut::Send),
                      Rtt = merged(OutA, &PhaseOut::Rtt);
  Summary SLat = summarize(Lat, QuietBlockRank),
          SRead = summarize(Read, QuietBlockRank),
          SWrite = summarize(Write, QuietBlockRank),
          SLate = summarize(Late, QuietBlockRank),
          SSend = summarize(Send, QuietBlockRank),
          SRtt = summarize(Rtt, QuietBlockRank);

  R.metric("setup_s", median(SetupS), "s");
  R.metric("throughput_ops_s", median(Untraced), "1/s");
  R.metric("latency_p50_us", SLat.P50, "us");
  R.metric("latency_p90_us", SLat.P90, "us");
  R.metric("latency_p99_us", SLat.P99, "us");
  R.metric("read_p50_us", SRead.P50, "us");
  R.metric("read_p90_us", SRead.P90, "us");
  R.metric("read_p99_us", SRead.P99, "us");
  R.metric("write_p50_us", SWrite.P50, "us");
  R.metric("write_p90_us", SWrite.P90, "us");
  R.metric("write_p99_us", SWrite.P99, "us");
  R.metric("cpu_us_per_op",
           double(Proc1 - Proc0 - DriverCpuA) / 1e3 / double(AnsweredA),
           "us");
  R.metric("peak_rss_mb", PeakRss, "MB");
  R.metric("failed_ratio", R.Failures.ratio(), "ratio");
  R.metric("recovery_s", median(RecoverS), "s");

  R.metric("driver.late_p99_us", SLate.P99, "us");
  R.metric("driver.samples", double(SLat.N), "count");
  if (A.Trace)
    R.metric("driver.trace_overhead_ratio",
             median(Traced) / median(Untraced),
             "ratio");
  R.metric("net.server_start_s", median(ServerS), "s");
  R.metric("net.connect_s", median(ConnectS), "s");
  R.metric("net.send_p99_us", SSend.P99, "us");
  R.metric("net.rtt_p50_us", SRtt.P50, "us");
  R.metric("net.rtt_p99_us", SRtt.P99, "us");
  uint64_t Batches = Net1.Batches - Net0.Batches;
  R.metric("net.batch_avg",
           Batches ? double(Net1.BatchedOps - Net0.BatchedOps) / Batches : 0,
           "count");
  R.metric("net.max_queue_depth", double(Net1.MaxQueueDepth), "count");
  R.metric("net.requests", double(Net1.Requests - Net0.Requests), "count");
  R.metric("net.responses", double(Net1.Responses - Net0.Responses),
           "count");
  R.metric("net.shed",
           double(Net1.ShedQueueFull + Net1.ShedDeadline -
                  Net0.ShedQueueFull - Net0.ShedDeadline),
           "count");
  R.metric("net.bad_frames", double(Net1.BadFrames - Net0.BadFrames),
           "count");
  R.metric("kv.store.prepopulate_s", median(PrepopS), "s");
  R.metric("kv.store.allocated", double(RS.Allocated), "count");
  R.metric("kv.store.recycled", double(RS.Recycled), "count");
  reportStm(R, StmD);
  uint64_t Fsyncs = WalD.FsyncBatches - Wal0.FsyncBatches;
  R.metric("kv.wal.fsyncs_per_s", double(Fsyncs) / WindowSec, "1/s");
  R.metric("kv.wal.records_per_fsync",
           Fsyncs ? double(WalD.RecordsWritten - Wal0.RecordsWritten) / Fsyncs
                  : 0,
           "count");
  R.metric("kv.wal.bytes_per_user_byte",
           UserKeys && WalBytes ? double(WalBytes) / double(UserKeys * 16)
                                : 0,
           "ratio");
  R.metric("kv.wal.ring_stalls", double(WalD.RingStalls - Wal0.RingStalls),
           "count");
  R.metric("kv.wal.recover_ms", median(RecoverMs), "ms");
  R.metric("kv.wal.recover_records_scanned", double(Rec.RecordsScanned),
           "count");
  R.metric("kv.wal.recover_records_replayed", double(Rec.RecordsReplayed),
           "count");
  R.metric("kv.wal.disk_bytes_per_live_byte", DiskPerLive, "ratio");
  R.metric("kv.ckpt.written", double(Ck.Written), "count");
  R.metric("kv.ckpt.ms_per_ckpt",
           Ck.Written ? Ck.TotalMillis / double(Ck.Written) : 0, "ms");
  R.metric("kv.ckpt.wal_truncated_bytes", double(Ck.WalTruncatedBytes),
           "bytes");
  R.metric("kv.ckpt.load_entries", double(Rec.CheckpointEntries), "count");
  R.metric("rt.heap_mb", HeapMb, "MB");

  if (A.Trace) {
    std::vector<Span> Spans = Setup.Spans;
    for (auto &C : Conns)
      Spans.insert(Spans.end(), C->spans().begin(), C->spans().end());
    std::vector<int64_t> Self = selfTimes(Spans);
    // Children of each request root, in order: driver.wait,
    // net.client.send, net.rtt (SpanLog::addRequest).
    double SelfSum[3] = {}, RootSum = 0;
    uint64_t Roots = 0;
    for (size_t I = 0; I + 3 < Spans.size(); ++I) {
      if (std::string(Spans[I].Name) != "request")
        continue;
      int64_t Children = Self[I + 1] + Self[I + 2] + Self[I + 3];
      if (Self[I] != 0 || Children != Spans[I].duration())
        R.violation("request span self times do not add up");
      for (unsigned K = 0; K < 3; ++K)
        SelfSum[K] += double(Self[I + 1 + K]);
      RootSum += double(Spans[I].duration());
      ++Roots;
    }
    double Den = Roots ? double(Roots) * 1e3 : 1;
    R.metric("trace.spans", double(Spans.size()), "count");
    R.metric("trace.request_us", RootSum / Den, "us");
    R.metric("trace.driver.wait_self_us", SelfSum[0] / Den, "us");
    R.metric("trace.net.client.send_self_us", SelfSum[1] / Den, "us");
    R.metric("trace.net.rtt_self_us", SelfSum[2] / Den, "us");
    std::string Path = A.Scratch + "/spans-wire_durable-" +
                       std::to_string(A.Seed) + ".tsv";
    writeSpans(Path, Spans, Self);
    R.contextStr("span_file", Path);
  }

  R.context("setup_repeats", SetupRepeats);
  R.context("latency_samples", double(SLat.N));
  R.context("read_samples", double(SRead.N));
  R.context("write_samples", double(SWrite.N));
  R.context("latency_top_percentile", SLat.TopPct);
  R.context("latency_top_us", SLat.Top);
  R.context("phase_a_seconds", double(DurA) / 1e9);
  R.context("phase_b_seconds", double(DurB) / 1e9);
  R.context("phase_b_windows", WindowsB);
  R.context("phase_b_answers", PhaseBOps);
  R.context("latency_blocks", double(SLat.Blocks));

  return 0;
}
