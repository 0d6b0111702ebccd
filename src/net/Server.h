//===- net/Server.h - epoll TCP front end for SATM-KV -----------*- C++ -*-===//
//
// Part of the SATM project, reproducing Shpeisman et al., PLDI 2007.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The network front end that serves kv::Store over TCP (DESIGN.md §13).
/// Two thread roles:
///
///  - one *acceptor* blocks in poll on the listening socket and hands
///    accepted connections round-robin to the I/O threads;
///  - N *I/O threads*, each with its own edge-triggered epoll set, own
///    their connections outright and run every request they decode to
///    completion. One epoll_wait return is one batch: the thread reads
///    every ready connection until EAGAIN into its one read buffer,
///    feeds the incremental frame decoder (net/Codec.h), collects the
///    decoded requests of all those connections, and executes them
///    against kv::Store — single-key GETs as one multiGet transaction,
///    PUT/INSERTs as one multiPut transaction, the rest one transaction
///    each — whenever NetBatch requests are collected and once more at
///    the end of the iteration. Responses are appended to each
///    connection's outbound buffer and every touched connection is
///    flushed once per executed batch (partial writes resume on the next
///    EPOLLOUT edge). While executed batches follow each other closely,
///    the thread polls its epoll set for a short window before it
///    blocks, so a client pipelining into it does not pay for waking it
///    on every send; at low load it blocks at once.
///
/// No shard has an owning thread: two I/O threads may run transactions
/// on the same shard at once, and the STM's transaction records,
/// isolation barriers and commit order keep them isolated and ordered,
/// exactly as for the in-process kv_service threads. A decoded request
/// never leaves the thread that read it, so no frame, buffer or
/// connection is handed between threads after accept.
///
/// Overload control at the socket (PR 5's OpBudget, now end-to-end):
/// with Cfg.Shed, at most QueueCap requests of one shard enter one
/// executed batch and the rest are answered Overloaded with no effects;
/// a request whose wait between its read() and its execution exceeds
/// DeadlineUs is answered DeadlineExceeded without a transaction; and
/// each executed batch carries a retry/deadline budget so abort storms
/// cannot convert into unbounded latency. Without Shed every request is
/// executed; an I/O thread holds at most NetBatch decoded requests, so a
/// client that pipelines faster than it is served waits in its socket.
///
/// Shutdown (stop()) is ordered so TSan-clean teardown is structural:
/// close the listener and stop admitting (frames decoded after the stop
/// answer Overloaded), then let each I/O thread finish its current loop
/// iteration — whose batch is always executed before it ends —
/// final-flush and close its connections, and exit; join them. The
/// caller detaches/stops an attached Wal afterwards.
///
//===----------------------------------------------------------------------===//

#ifndef SATM_NET_SERVER_H
#define SATM_NET_SERVER_H

#include "kv/Store.h"
#include "net/Codec.h"

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

namespace satm {
namespace kv {
class Wal;
}
namespace net {

struct ServerConfig {
  std::string Host = "127.0.0.1";
  uint16_t Port = 0;    ///< 0 = kernel-assigned; read back via port().
  unsigned IoThreads = 1;
  /// Ignored: requests run on the I/O thread that decoded them, so there
  /// are no executor threads to size. Kept so existing configuration
  /// code that assigns it still compiles.
  unsigned Workers = 1;
  uint32_t NetBatch = 16;  ///< Max requests per executed batch (≥ 1).
  /// Shed mode: at most this many requests of one shard per executed
  /// batch; the rest are answered Overloaded.
  uint32_t QueueCap = 1024;
  bool Shed = false;        ///< Overload policy: shed (true) or queue.
  uint64_t DeadlineUs = 0;  ///< Shed: per-request deadline from arrival.
  uint32_t RetryBudget = 0; ///< Shed: txn attempts per batch (0 = ∞).
  /// Sync-durability ack discipline: when set, a batch's responses are
  /// withheld until the batch's last redo LSN is fsynced (bounded by
  /// DeadlineUs when that is set — a wedged disk must not wedge the
  /// I/O thread). A degraded WAL turns committed mutation acks into
  /// Status::DurabilityLost instead of blocking.
  kv::Wal *SyncWal = nullptr;
  /// Durability visibility for the STATS opcode (degraded flag, dropped
  /// record count) — set whenever a WAL is attached, sync *or* async, so
  /// async deployments can observe a sealed log too.
  kv::Wal *StatsWal = nullptr;
};

/// Monotone counters, readable live (the STATS opcode) and post-join.
struct ServerStats {
  uint64_t Accepted = 0;       ///< Connections admitted.
  uint64_t DroppedAccepts = 0; ///< net_accept fault drops.
  uint64_t Closed = 0;         ///< Connections torn down.
  uint64_t Requests = 0;       ///< Data frames decoded.
  uint64_t Responses = 0;      ///< Response frames enqueued.
  uint64_t BadFrames = 0;      ///< Framing errors (connection closed).
  uint64_t Batches = 0;        ///< Amortizing txns issued (GET/PUT merges).
  uint64_t BatchedOps = 0;     ///< Single-key requests those txns covered.
  uint64_t ShedQueueFull = 0;  ///< Admission sheds (shard at QueueCap).
  uint64_t ShedDeadline = 0;   ///< Execution sheds (already past deadline).
  uint64_t MaxQueueDepth = 0;  ///< Most requests of one shard in a batch.
  /// Requests per amortizing transaction; > 1 means batching is live.
  double batchAvg() const {
    return Batches ? double(BatchedOps) / double(Batches) : 0.0;
  }
};

class Server {
public:
  Server(kv::Store &S, const ServerConfig &C);
  ~Server();

  Server(const Server &) = delete;
  Server &operator=(const Server &) = delete;

  /// Binds, listens, spawns the acceptor and I/O threads. On failure
  /// fills \p Err and leaves the server stopped.
  bool start(std::string *Err);

  /// The bound port (after start(); useful with Cfg.Port == 0).
  uint16_t port() const { return BoundPort; }

  /// Flags the server to stop and nudges the acceptor. Safe to call from
  /// a signal handler's forwarding thread or a SHUTDOWN frame handler;
  /// the actual teardown happens in stop().
  void requestStop();

  /// True once requestStop() fired (poll this to know when to stop()).
  bool stopRequested() const {
    return Stopping.load(std::memory_order_acquire);
  }

  /// Graceful teardown: listener closed, each I/O thread's last batch
  /// executed, connections flushed and closed, I/O threads joined.
  /// Idempotent.
  void stop();

  ServerStats stats() const;

private:
  struct Conn;
  struct IoState;
  struct Request;

  using Clock = std::chrono::steady_clock;

  void acceptorLoop();
  void ioLoop(unsigned Idx);

  void registerIncoming(IoState &Io);
  void readDrain(IoState &Io, Conn &C);
  void flushConn(IoState &Io, Conn &C);
  void closeConn(IoState &Io, Conn &C);
  /// Answers STATS/SHUTDOWN and sheds inline, or appends the request in
  /// the batch's free slot to the batch (executing a full batch).
  void admit(IoState &Io, Conn &C, Clock::time_point Arrival);

  /// Appends response frame \p F to \p C's outbound buffer and lists \p C
  /// for the next flush; a no-op on a closed connection.
  void reply(IoState &Io, Conn &C, const Frame &F);

  /// Executes the collected batch, then flushes every touched connection.
  void runBatch(IoState &Io);
  void executeBatch(IoState &Io);

  kv::Store &S;
  ServerConfig Cfg;

  int ListenFd = -1;
  /// Atomic: the Shutdown-frame path calls requestStop() from I/O threads
  /// while stop() retires the fd on the owner thread.
  std::atomic<int> AcceptWakeFd{-1};
  uint16_t BoundPort = 0;
  bool Started = false;

  std::atomic<bool> Stopping{false};   ///< Stop admitting new work.
  std::atomic<bool> IoStopping{false}; ///< Final-flush and exit I/O.

  std::thread Acceptor;
  std::vector<std::unique_ptr<IoState>> Io;

  /// Monotone counter cells (relaxed; snapshotted by stats()).
  struct Cells;
  std::unique_ptr<Cells> C;
};

} // namespace net
} // namespace satm

#endif // SATM_NET_SERVER_H
