//===- net/Server.cpp - epoll TCP front end for SATM-KV ------------------===//
//
// Part of the SATM project, reproducing Shpeisman et al., PLDI 2007.
//
//===----------------------------------------------------------------------===//

#include "net/Server.h"

#include "kv/Wal.h"
#include "support/FaultInjector.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <cstring>
#include <mutex>

using namespace satm;
using namespace satm::net;

//===----------------------------------------------------------------------===//
// Internal state
//===----------------------------------------------------------------------===//

/// One client connection, private to the I/O thread it was handed to.
/// closeConn() only marks it Dead and moves it to the thread's Retired
/// list, which is emptied when the loop iteration ends: requests of it
/// still waiting in the batch, and epoll events for it later in the same
/// epoll_wait return, keep a valid pointer until then. A Dead connection
/// is never read or written again; responses to it are dropped.
struct Server::Conn {
  int Fd = -1;
  FrameDecoder Dec{/*Strict=*/true};
  std::vector<uint8_t> Out; ///< Encoded responses awaiting flush.
  size_t OutOff = 0;        ///< Flushed prefix of Out.
  bool Dead = false;        ///< Socket closed.
  bool Touched = false;     ///< Listed in IoState::Touched.
};

/// A decoded request in its I/O thread's batch. The frame is decoded
/// straight into its batch slot and rewritten in place into the response.
struct Server::Request {
  Conn *C = nullptr;
  Frame F;
  Clock::time_point Arrival; ///< Stamp of the read() (only with a deadline).
  uint32_t Shard = 0;
};

/// Per-I/O-thread state. Only Incoming is shared, with the acceptor.
struct Server::IoState {
  int EpollFd = -1;
  int WakeFd = -1;
  std::thread Thr;
  std::mutex Mutex;                            ///< Guards Incoming.
  std::vector<std::unique_ptr<Conn>> Incoming; ///< Accepted, unregistered.
  std::vector<std::unique_ptr<Conn>> Conns;    ///< Live connections.
  std::vector<std::unique_ptr<Conn>> Retired;  ///< Closed this iteration.
  std::unique_ptr<uint8_t[]> ReadBuf;
  std::vector<Request> Batch; ///< NetBatch slots, the first BatchLen used.
  size_t BatchLen = 0;
  std::vector<uint32_t> ShardDepth; ///< Batched requests per shard.
  std::vector<Request *> Gets, Puts, Others; ///< executeBatch's partition.
  std::vector<Conn *> Touched; ///< Connections with responses to flush.
  bool Executed = false;        ///< This iteration executed requests.
  Clock::time_point LastExec{}; ///< End of the last such iteration.
};

struct Server::Cells {
  std::atomic<uint64_t> Accepted{0};
  std::atomic<uint64_t> DroppedAccepts{0};
  std::atomic<uint64_t> Closed{0};
  std::atomic<uint64_t> Requests{0};
  std::atomic<uint64_t> Responses{0};
  std::atomic<uint64_t> BadFrames{0};
  std::atomic<uint64_t> Batches{0};
  std::atomic<uint64_t> BatchedOps{0};
  std::atomic<uint64_t> ShedQueueFull{0};
  std::atomic<uint64_t> ShedDeadline{0};
  std::atomic<uint64_t> MaxQueueDepth{0};

  void maxDepth(uint64_t D) {
    uint64_t Cur = MaxQueueDepth.load(std::memory_order_relaxed);
    while (D > Cur && !MaxQueueDepth.compare_exchange_weak(
                          Cur, D, std::memory_order_relaxed))
      ;
  }
};

namespace {

constexpr size_t ReadBufBytes = 16 * 1024;

/// Busy polling: after two executing loop iterations less than this
/// apart, the I/O thread polls its epoll set for up to this long before
/// it blocks. A client pipelining into a sleeping thread pays for waking
/// it on every send; a polling thread costs it nothing. At low load (no
/// two batches this close) the thread blocks at once, as before.
constexpr std::chrono::microseconds PollWindow{30};

void drainEventFd(int Fd) {
  uint64_t V;
  while (::read(Fd, &V, sizeof(V)) == sizeof(V))
    ;
}

void signalEventFd(int Fd) {
  uint64_t One = 1;
  ssize_t R = ::write(Fd, &One, sizeof(One));
  (void)R; // EAGAIN means the counter is already nonzero — wake pending.
}

Status toStatus(kv::OpStatus St) {
  // Ordinals 0..5 mirror exactly; DurabilityLost's kv ordinal (6) is
  // BadRequest on the wire and must map explicitly.
  if (St == kv::OpStatus::DurabilityLost)
    return Status::DurabilityLost;
  return Status(uint8_t(St));
}

/// Rewrites request frame \p F into its response: status \p St carrying
/// the first \p Count words of the body.
void setResponse(Frame &F, Status St, uint16_t Count) {
  F.Aux = uint8_t(St);
  F.Count = Count;
  F.Words = Count;
}

bool isMutation(MsgOp Op) {
  return Op == MsgOp::Put || Op == MsgOp::Insert || Op == MsgOp::Erase ||
         Op == MsgOp::Cas || Op == MsgOp::Rmw;
}

} // namespace

//===----------------------------------------------------------------------===//
// Lifecycle
//===----------------------------------------------------------------------===//

Server::Server(kv::Store &S, const ServerConfig &Cfg) : S(S), Cfg(Cfg) {
  this->Cfg.IoThreads = std::clamp(this->Cfg.IoThreads, 1u, 64u);
  this->Cfg.NetBatch = std::max(this->Cfg.NetBatch, 1u);
  this->Cfg.QueueCap = std::max(this->Cfg.QueueCap, 1u);
}

Server::~Server() { stop(); }

bool Server::start(std::string *Err) {
  auto Fail = [&](const char *What) {
    if (Err)
      *Err = std::string(What) + ": " + std::strerror(errno);
    if (ListenFd >= 0)
      ::close(ListenFd);
    if (AcceptWakeFd >= 0)
      ::close(AcceptWakeFd);
    ListenFd = AcceptWakeFd = -1;
    for (auto &I : Io) {
      if (I->EpollFd >= 0)
        ::close(I->EpollFd);
      if (I->WakeFd >= 0)
        ::close(I->WakeFd);
    }
    Io.clear();
    C.reset();
    return false;
  };

  assert(!Started && "start() is not re-entrant");
  C = std::make_unique<Cells>();
  Stopping.store(false, std::memory_order_release);
  IoStopping.store(false, std::memory_order_release);

  ListenFd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (ListenFd < 0)
    return Fail("socket");
  int One = 1;
  ::setsockopt(ListenFd, SOL_SOCKET, SO_REUSEADDR, &One, sizeof(One));

  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(Cfg.Port);
  if (::inet_pton(AF_INET, Cfg.Host.c_str(), &Addr.sin_addr) != 1) {
    errno = EINVAL;
    return Fail("inet_pton");
  }
  if (::bind(ListenFd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0)
    return Fail("bind");
  if (::listen(ListenFd, 128) < 0)
    return Fail("listen");

  sockaddr_in Bound{};
  socklen_t BoundLen = sizeof(Bound);
  if (::getsockname(ListenFd, reinterpret_cast<sockaddr *>(&Bound),
                    &BoundLen) < 0)
    return Fail("getsockname");
  BoundPort = ntohs(Bound.sin_port);

  AcceptWakeFd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (AcceptWakeFd < 0)
    return Fail("eventfd");

  for (unsigned I = 0; I < Cfg.IoThreads; ++I) {
    auto St = std::make_unique<IoState>();
    St->EpollFd = ::epoll_create1(EPOLL_CLOEXEC);
    St->WakeFd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (St->EpollFd < 0 || St->WakeFd < 0) {
      Io.push_back(std::move(St));
      return Fail("epoll_create1/eventfd");
    }
    epoll_event Ev{};
    Ev.events = EPOLLIN; // Level-triggered: re-fires until drained.
    Ev.data.ptr = nullptr;
    if (::epoll_ctl(St->EpollFd, EPOLL_CTL_ADD, St->WakeFd, &Ev) < 0) {
      Io.push_back(std::move(St));
      return Fail("epoll_ctl(wake)");
    }
    St->ReadBuf = std::make_unique<uint8_t[]>(ReadBufBytes);
    St->Batch.resize(Cfg.NetBatch);
    St->ShardDepth.assign(S.shards(), 0);
    Io.push_back(std::move(St));
  }

  Started = true;
  for (unsigned I = 0; I < Cfg.IoThreads; ++I)
    Io[I]->Thr = std::thread([this, I] { ioLoop(I); });
  Acceptor = std::thread([this] { acceptorLoop(); });
  return true;
}

void Server::requestStop() {
  Stopping.store(true, std::memory_order_release);
  // Load once: stop() retires the fd to -1 concurrently (it stays open
  // until the I/O threads — the in-process callers of this — are joined).
  int Wake = AcceptWakeFd.load(std::memory_order_acquire);
  if (Wake >= 0)
    signalEventFd(Wake);
}

void Server::stop() {
  if (!Started)
    return;

  // 1. Stop admitting: flag, close the listener. Frames decoded from this
  //    point on answer Overloaded; nothing new enters a batch.
  requestStop();
  if (Acceptor.joinable())
    Acceptor.join();
  if (ListenFd >= 0)
    ::close(ListenFd);
  ListenFd = -1;
  // AcceptWakeFd stays open: I/O threads still running below may hit a
  // Shutdown frame and requestStop() signals through it. Retired after
  // they are joined.

  // 2. Tear down I/O: each thread finishes the loop iteration it is in,
  //    which always ends by executing its batch, so no decoded request is
  //    left unanswered. Then it final-flushes each connection's pending
  //    bytes (with a bounded politeness window), closes every socket and
  //    exits.
  IoStopping.store(true, std::memory_order_release);
  for (auto &I : Io)
    signalEventFd(I->WakeFd);
  for (auto &I : Io)
    if (I->Thr.joinable())
      I->Thr.join();
  for (auto &I : Io) {
    if (I->EpollFd >= 0)
      ::close(I->EpollFd);
    if (I->WakeFd >= 0)
      ::close(I->WakeFd);
    I->EpollFd = I->WakeFd = -1;
  }
  if (int Wake = AcceptWakeFd.exchange(-1); Wake >= 0)
    ::close(Wake);
  Started = false;
}

ServerStats Server::stats() const {
  ServerStats R;
  if (!C)
    return R;
  R.Accepted = C->Accepted.load(std::memory_order_relaxed);
  R.DroppedAccepts = C->DroppedAccepts.load(std::memory_order_relaxed);
  R.Closed = C->Closed.load(std::memory_order_relaxed);
  R.Requests = C->Requests.load(std::memory_order_relaxed);
  R.Responses = C->Responses.load(std::memory_order_relaxed);
  R.BadFrames = C->BadFrames.load(std::memory_order_relaxed);
  R.Batches = C->Batches.load(std::memory_order_relaxed);
  R.BatchedOps = C->BatchedOps.load(std::memory_order_relaxed);
  R.ShedQueueFull = C->ShedQueueFull.load(std::memory_order_relaxed);
  R.ShedDeadline = C->ShedDeadline.load(std::memory_order_relaxed);
  R.MaxQueueDepth = C->MaxQueueDepth.load(std::memory_order_relaxed);
  return R;
}

//===----------------------------------------------------------------------===//
// Acceptor
//===----------------------------------------------------------------------===//

void Server::acceptorLoop() {
  pollfd P[2] = {{ListenFd, POLLIN, 0}, {AcceptWakeFd, POLLIN, 0}};
  while (!Stopping.load(std::memory_order_acquire)) {
    int N = ::poll(P, 2, -1);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      break;
    }
    if (P[1].revents)
      drainEventFd(AcceptWakeFd);
    if (Stopping.load(std::memory_order_acquire))
      break;
    if (!(P[0].revents & POLLIN))
      continue;
    for (;;) {
      int Fd = ::accept4(ListenFd, nullptr, nullptr,
                         SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (Fd < 0) {
        if (errno == EINTR)
          continue;
        break; // EAGAIN or a transient accept error: back to poll.
      }
      if (faultPoint(FaultSite::NetAccept)) {
        ::close(Fd);
        C->DroppedAccepts.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      int One = 1;
      ::setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
      uint64_t Seq = C->Accepted.fetch_add(1, std::memory_order_relaxed);
      IoState &Target = *Io[Seq % Cfg.IoThreads];
      auto Cn = std::make_unique<Conn>();
      Cn->Fd = Fd;
      {
        std::lock_guard<std::mutex> L(Target.Mutex);
        Target.Incoming.push_back(std::move(Cn));
      }
      signalEventFd(Target.WakeFd);
    }
  }
}

//===----------------------------------------------------------------------===//
// I/O threads: socket side
//===----------------------------------------------------------------------===//

void Server::registerIncoming(IoState &IoSt) {
  std::vector<std::unique_ptr<Conn>> Fresh;
  {
    std::lock_guard<std::mutex> L(IoSt.Mutex);
    Fresh.swap(IoSt.Incoming);
  }
  for (std::unique_ptr<Conn> &Cn : Fresh) {
    epoll_event Ev{};
    Ev.events = EPOLLIN | EPOLLOUT | EPOLLET;
    Ev.data.ptr = Cn.get();
    if (::epoll_ctl(IoSt.EpollFd, EPOLL_CTL_ADD, Cn->Fd, &Ev) < 0) {
      ::close(Cn->Fd);
      C->Closed.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    Conn &Registered = *Cn;
    IoSt.Conns.push_back(std::move(Cn));
    // Bytes may have arrived before the ADD; with ET the registration
    // reports current readiness, but drain defensively anyway.
    readDrain(IoSt, Registered);
  }
}

void Server::closeConn(IoState &IoSt, Conn &Cn) {
  if (Cn.Dead)
    return;
  Cn.Dead = true;
  ::epoll_ctl(IoSt.EpollFd, EPOLL_CTL_DEL, Cn.Fd, nullptr);
  ::close(Cn.Fd);
  Cn.Fd = -1;
  auto It = std::find_if(IoSt.Conns.begin(), IoSt.Conns.end(),
                         [&](const std::unique_ptr<Conn> &P) {
                           return P.get() == &Cn;
                         });
  if (It != IoSt.Conns.end()) {
    IoSt.Retired.push_back(std::move(*It));
    IoSt.Conns.erase(It);
  }
  C->Closed.fetch_add(1, std::memory_order_relaxed);
}

void Server::readDrain(IoState &IoSt, Conn &Cn) {
  for (;;) {
    size_t Cap = ReadBufBytes;
    if (faultPoint(FaultSite::NetRead)) {
      uint32_t Arg = FaultInjector::arg(FaultSite::NetRead);
      Cap = std::min<size_t>(Cap, std::max<uint32_t>(Arg, 1));
    }
    ssize_t N = ::read(Cn.Fd, IoSt.ReadBuf.get(), Cap);
    if (N > 0) {
      // One arrival stamp per read(), taken only when a deadline reads it.
      Clock::time_point Arrival{};
      if (Cfg.DeadlineUs)
        Arrival = Clock::now();
      Cn.Dec.feed(IoSt.ReadBuf.get(), size_t(N));
      while (!Cn.Dead && Cn.Dec.next(IoSt.Batch[IoSt.BatchLen].F))
        admit(IoSt, Cn, Arrival);
      if (Cn.Dead) // A full batch's flush found the peer gone.
        return;
      if (Cn.Dec.failed()) {
        C->BadFrames.fetch_add(1, std::memory_order_relaxed);
        closeConn(IoSt, Cn);
        return;
      }
      continue; // Edge-triggered: keep reading until EAGAIN.
    }
    if (N < 0 && errno == EINTR)
      continue;
    if (N < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
      return;
    closeConn(IoSt, Cn); // Orderly peer close or a read error.
    return;
  }
}

void Server::flushConn(IoState &IoSt, Conn &Cn) {
  if (Cn.Dead)
    return;
  while (Cn.OutOff < Cn.Out.size()) {
    size_t N = Cn.Out.size() - Cn.OutOff;
    if (faultPoint(FaultSite::NetWrite)) {
      uint32_t Arg = FaultInjector::arg(FaultSite::NetWrite);
      N = std::min<size_t>(N, std::max<uint32_t>(Arg, 1));
    }
    // MSG_NOSIGNAL: a peer may reset while its requests are still in the
    // batch; that must close this connection, not raise SIGPIPE.
    ssize_t W = ::send(Cn.Fd, Cn.Out.data() + Cn.OutOff, N, MSG_NOSIGNAL);
    if (W > 0) {
      Cn.OutOff += size_t(W);
      continue;
    }
    if (errno == EINTR)
      continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK)
      break; // Resume on the next EPOLLOUT edge.
    closeConn(IoSt, Cn);
    return;
  }
  if (Cn.OutOff == Cn.Out.size()) {
    Cn.Out.clear();
    Cn.OutOff = 0;
  } else if (Cn.OutOff > 64 * 1024) {
    Cn.Out.erase(Cn.Out.begin(), Cn.Out.begin() + std::ptrdiff_t(Cn.OutOff));
    Cn.OutOff = 0;
  }
}

void Server::ioLoop(unsigned Idx) {
  IoState &IoSt = *Io[Idx];
  epoll_event Evs[64];
  for (;;) {
    int N = 0;
    if (IoSt.Executed) {
      Clock::time_point Now = Clock::now();
      bool Busy = Now - IoSt.LastExec < PollWindow;
      IoSt.LastExec = Now;
      IoSt.Executed = false;
      if (Busy) {
        Clock::time_point Until = Now + PollWindow;
        do
          N = ::epoll_wait(IoSt.EpollFd, Evs, 64, 0);
        while (N == 0 && Clock::now() < Until);
      }
    }
    if (N == 0)
      N = ::epoll_wait(IoSt.EpollFd, Evs, 64, -1);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      break;
    }
    // One epoll_wait return is one batch: read every ready connection,
    // executing whenever NetBatch requests are collected, then execute
    // the rest.
    for (int E = 0; E < N; ++E) {
      auto *Cn = static_cast<Conn *>(Evs[E].data.ptr);
      if (!Cn) {
        drainEventFd(IoSt.WakeFd);
        registerIncoming(IoSt);
        continue;
      }
      if (Cn->Dead) // Closed earlier in this iteration.
        continue;
      if (Evs[E].events & (EPOLLHUP | EPOLLERR)) {
        closeConn(IoSt, *Cn);
        continue;
      }
      if (Evs[E].events & EPOLLIN)
        readDrain(IoSt, *Cn);
      if (Evs[E].events & EPOLLOUT)
        flushConn(IoSt, *Cn);
    }
    runBatch(IoSt);
    IoSt.Retired.clear();

    if (IoStopping.load(std::memory_order_acquire)) {
      registerIncoming(IoSt); // Strays accepted right before the stop.
      runBatch(IoSt);
      // Final flush with a bounded politeness window, then close all.
      std::vector<Conn *> Live;
      for (int Round = 0; Round < 100; ++Round) {
        Live.clear();
        for (const std::unique_ptr<Conn> &P : IoSt.Conns)
          Live.push_back(P.get());
        bool AnyPending = false;
        for (Conn *Cn : Live) {
          flushConn(IoSt, *Cn);
          AnyPending |= !Cn->Dead && Cn->OutOff < Cn->Out.size();
        }
        if (!AnyPending)
          break;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
      while (!IoSt.Conns.empty())
        closeConn(IoSt, *IoSt.Conns.back());
      IoSt.Retired.clear();
      break;
    }
  }
}

//===----------------------------------------------------------------------===//
// I/O threads: admission and execution
//===----------------------------------------------------------------------===//

void Server::reply(IoState &IoSt, Conn &Cn, const Frame &F) {
  if (Cn.Dead)
    return;
  uint8_t Enc[MaxFrameBytes];
  size_t Len = encodeFrame(Enc, F);
  Cn.Out.insert(Cn.Out.end(), Enc, Enc + Len);
  C->Responses.fetch_add(1, std::memory_order_relaxed);
  if (!Cn.Touched) {
    Cn.Touched = true;
    IoSt.Touched.push_back(&Cn);
  }
}

void Server::admit(IoState &IoSt, Conn &Cn, Clock::time_point Arrival) {
  Request &R = IoSt.Batch[IoSt.BatchLen];
  Frame &F = R.F;
  if (F.Op == MsgOp::Stats) {
    ServerStats St = stats();
    kv::Word WalDegraded = 0, WalDropped = 0;
    if (Cfg.StatsWal) {
      kv::WalStats Ws = Cfg.StatsWal->stats();
      WalDegraded = Ws.Degraded ? 1 : 0;
      WalDropped = Ws.DroppedRecords;
    }
    kv::Word Body[StatsWordCount] = {
        St.Accepted,  St.DroppedAccepts, St.Closed,        St.Requests,
        St.Responses, St.BadFrames,      St.Batches,       St.BatchedOps,
        St.ShedQueueFull, St.ShedDeadline, St.MaxQueueDepth,
        WalDegraded,  WalDropped};
    std::copy(Body, Body + StatsWordCount, F.Body);
    setResponse(F, Status::Ok, StatsWordCount);
    reply(IoSt, Cn, F);
    return;
  }
  if (F.Op == MsgOp::Shutdown) {
    // Stop first, then ack: a client that has seen the Ok frame may rely
    // on stopRequested() already reading true.
    requestStop();
    setResponse(F, Status::Ok, 0);
    reply(IoSt, Cn, F);
    return;
  }

  C->Requests.fetch_add(1, std::memory_order_relaxed);
  if (Stopping.load(std::memory_order_acquire)) {
    // Stopping: answer instead of batching, so stop() never races new work.
    setResponse(F, Status::Overloaded, 0);
    reply(IoSt, Cn, F);
    return;
  }

  uint32_t Shard = S.shardOf(F.Body[0]);
  uint32_t &Depth = IoSt.ShardDepth[Shard];
  if (Cfg.Shed && Depth >= Cfg.QueueCap) {
    C->ShedQueueFull.fetch_add(1, std::memory_order_relaxed);
    setResponse(F, Status::Overloaded, 0);
    reply(IoSt, Cn, F);
    return;
  }
  ++Depth;
  R.C = &Cn;
  R.Arrival = Arrival;
  R.Shard = Shard;
  if (++IoSt.BatchLen == Cfg.NetBatch)
    runBatch(IoSt);
}

void Server::runBatch(IoState &IoSt) {
  if (IoSt.BatchLen) {
    executeBatch(IoSt);
    IoSt.Executed = true;
  }
  for (Conn *Cn : IoSt.Touched) {
    Cn->Touched = false;
    flushConn(IoSt, *Cn);
  }
  IoSt.Touched.clear();
}

void Server::executeBatch(IoState &IoSt) {
  Request *const Batch = IoSt.Batch.data();
  const size_t Len = IoSt.BatchLen;

  // Execution-side shed: a request that already overstayed its deadline
  // between its read() and now is answered without burning a transaction.
  Clock::time_point Now{};
  if (Cfg.Shed && Cfg.DeadlineUs)
    Now = Clock::now();
  Clock::time_point Earliest = Clock::time_point::max();

  std::vector<Request *> &Gets = IoSt.Gets, &Puts = IoSt.Puts,
                         &Others = IoSt.Others;
  Gets.clear();
  Puts.clear();
  Others.clear();
  for (size_t I = 0; I < Len; ++I) {
    Request &R = Batch[I];
    if (Cfg.Shed && Cfg.DeadlineUs &&
        Now > R.Arrival + std::chrono::microseconds(Cfg.DeadlineUs)) {
      C->ShedDeadline.fetch_add(1, std::memory_order_relaxed);
      setResponse(R.F, Status::DeadlineExceeded, 0);
      continue;
    }
    Earliest = std::min(Earliest, R.Arrival);
    switch (R.F.Op) {
    case MsgOp::Get:
      Gets.push_back(&R);
      break;
    case MsgOp::Put:
    case MsgOp::Insert:
      Puts.push_back(&R);
      break;
    default:
      Others.push_back(&R);
      break;
    }
  }

  kv::OpBudget B;
  if (Cfg.Shed) {
    B.MaxAttempts = Cfg.RetryBudget;
    if (Cfg.DeadlineUs && Earliest != Clock::time_point::max())
      B.Deadline = Earliest + std::chrono::microseconds(Cfg.DeadlineUs);
  }

  // Single-key GETs: one multiGet transaction per chunk. This is the
  // amortization the front end exists for — one serialization point, one
  // read-set validation, N network requests.
  kv::Word Keys[MaxKeysPerFrame], Vals[MaxKeysPerFrame];
  for (size_t At = 0; At < Gets.size(); At += MaxKeysPerFrame) {
    size_t N = std::min(Gets.size() - At, MaxKeysPerFrame);
    for (size_t I = 0; I < N; ++I)
      Keys[I] = Gets[At + I]->F.Body[0];
    kv::OpStatus St = S.multiGet(Keys, N, Vals, B);
    C->Batches.fetch_add(1, std::memory_order_relaxed);
    C->BatchedOps.fetch_add(N, std::memory_order_relaxed);
    for (size_t I = 0; I < N; ++I) {
      Frame &F = Gets[At + I]->F;
      if (St != kv::OpStatus::Ok) {
        setResponse(F, toStatus(St), 0);
      } else if (Vals[I] == kv::Store::Tombstone) {
        setResponse(F, Status::NotFound, 0);
      } else {
        F.Body[0] = Vals[I];
        setResponse(F, Status::Ok, 1);
      }
    }
  }

  // PUT/INSERTs: one multiPut transaction per chunk. A per-key Full falls
  // back to the single-key insert path, which harvests the retire pools
  // (multiPut deliberately does not).
  kv::OpStatus PerKey[MaxKeysPerFrame];
  for (size_t At = 0; At < Puts.size(); At += MaxKeysPerFrame) {
    size_t N = std::min(Puts.size() - At, MaxKeysPerFrame);
    for (size_t I = 0; I < N; ++I) {
      Keys[I] = Puts[At + I]->F.Body[0];
      Vals[I] = Puts[At + I]->F.Body[1];
    }
    kv::OpStatus St = S.multiPut(Keys, Vals, N, PerKey, B);
    C->Batches.fetch_add(1, std::memory_order_relaxed);
    C->BatchedOps.fetch_add(N, std::memory_order_relaxed);
    for (size_t I = 0; I < N; ++I) {
      Frame &F = Puts[At + I]->F;
      if (St != kv::OpStatus::Ok) {
        setResponse(F, toStatus(St), 0);
        continue;
      }
      kv::OpStatus KSt = PerKey[I];
      if (KSt == kv::OpStatus::Full)
        KSt = S.insert(Keys[I], Vals[I], B); // Recycling retry.
      setResponse(F, toStatus(KSt), 0);
    }
  }

  // The rest run one transaction each, in arrival order.
  for (Request *R : Others) {
    Frame &F = R->F;
    switch (F.Op) {
    case MsgOp::Erase:
      setResponse(F, toStatus(S.erase(F.Body[0], B)), 0);
      break;
    case MsgOp::Cas:
      setResponse(F, toStatus(S.cas(F.Body[0], F.Body[1], F.Body[2], B)), 0);
      break;
    case MsgOp::MultiGet: {
      kv::Word Out[MaxKeysPerFrame];
      uint16_t N = F.Count;
      kv::OpStatus St = S.multiGet(F.Body, N, Out, B);
      if (St == kv::OpStatus::Ok) {
        std::copy(Out, Out + N, F.Body);
        setResponse(F, Status::Ok, N);
      } else {
        setResponse(F, toStatus(St), 0);
      }
      break;
    }
    case MsgOp::Rmw:
      setResponse(F, toStatus(S.rmwAdd(F.Body, F.Count, F.Body[F.Count], B)),
                  0);
      break;
    default:
      setResponse(F, Status::BadRequest, 0);
      break;
    }
  }

  // Durability gate: no ack leaves before the batch's redo records are
  // fsynced. lastAppendedLsn() is taken after the last commit above, so
  // it covers every mutation in the batch. The wait is bounded by the
  // request deadline when one is configured (a wedged disk must not
  // block the I/O thread forever), and a degraded WAL reports
  // immediately. On either non-Ok verdict the committed mutations in
  // this batch are re-acked honestly: their in-memory effect stands, but
  // the sync durability promise does not — DeadlineExceeded (unknown
  // yet) or DurabilityLost (never). Read results are untouched: they
  // never promised durability.
  if (Cfg.SyncWal) {
    kv::DurableWait Verdict;
    if (Cfg.DeadlineUs && Earliest != Clock::time_point::max())
      Verdict = Cfg.SyncWal->waitDurable(
          kv::Wal::lastAppendedLsn(),
          Earliest + std::chrono::microseconds(Cfg.DeadlineUs));
    else
      Verdict = Cfg.SyncWal->waitDurable(kv::Wal::lastAppendedLsn());
    if (Verdict != kv::DurableWait::Ok) {
      const Status Downgrade = Verdict == kv::DurableWait::DurabilityLost
                                   ? Status::DurabilityLost
                                   : Status::DeadlineExceeded;
      for (size_t I = 0; I < Len; ++I) {
        Frame &F = Batch[I].F;
        if (isMutation(F.Op) && F.status() == Status::Ok)
          F.Aux = uint8_t(Downgrade);
      }
    }
  }

  // Responses leave in request order; each shard's batch depth is read
  // into the high-water mark and reset.
  uint32_t MaxDepth = 0;
  for (size_t I = 0; I < Len; ++I) {
    reply(IoSt, *Batch[I].C, Batch[I].F);
    uint32_t &Depth = IoSt.ShardDepth[Batch[I].Shard];
    MaxDepth = std::max(MaxDepth, Depth);
    Depth = 0;
  }
  C->maxDepth(MaxDepth);
  IoSt.BatchLen = 0;
}
