//===- tests/net/ServerTest.cpp - Loopback server end-to-end tests -------===//
//
// Part of the SATM project, reproducing Shpeisman et al., PLDI 2007.
//
//===----------------------------------------------------------------------===//
//
// In-process net::Server against a real kv::Store, exercised over
// loopback with net::Client: per-opcode correctness, pipelined batching
// (the WorkerDelayUs hook builds queues deterministically so batchAvg
// must exceed 1), both shed paths (admission queue-full and dequeue
// deadline), framing-damage connection close, the net_accept / net_read /
// net_write fault sites, and the start/connect/kill/join loop that
// certifies stop() is clean with traffic in flight.
//
//===----------------------------------------------------------------------===//

#include "net/Server.h"

#include "net/Client.h"
#include "stm/Config.h"
#include "stm/Snapshot.h"
#include "support/FaultInjector.h"

#include "gtest/gtest.h"

#include <sys/socket.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

using namespace satm;
using namespace satm::net;

namespace {

/// Server tests run in the service's production shape: +DEA strong mode,
/// like bench/kv_server. The snapshot version table keys raw Object*
/// into this fixture's heap, so it is cleared before the heap dies.
class ServerTest : public ::testing::Test {
protected:
  ServerTest() {
    stm::Config C;
    C.DeaEnabled = true;
    SC = std::make_unique<stm::ScopedConfig>(C);
  }
  ~ServerTest() override {
    // Tests that arm their own campaign must not leave the process
    // disarmed for the rest of an env-seeded lane (ci.sh's net-fault
    // matrix): restore SATM_FAULTS if one is set, else disarm.
    FaultInjector::disarm();
    if (const char *E = std::getenv("SATM_FAULTS"); E && *E) {
      FaultConfig FC;
      std::string Err;
      if (FaultInjector::parse(E, FC, Err))
        FaultInjector::arm(FC);
    }
    stm::snap::resetTable();
  }

  kv::StoreConfig storeShape() {
    kv::StoreConfig C;
    C.Shards = 4;
    C.CapacityPerShard = 256;
    return C;
  }

  ServerConfig serverShape() {
    ServerConfig C;
    C.IoThreads = 2;
    C.Workers = 2;
    C.NetBatch = 16;
    return C;
  }

  std::unique_ptr<stm::ScopedConfig> SC;
  rt::Heap H;
};

TEST_F(ServerTest, EveryOpcodeEndToEnd) {
  kv::Store S(H, storeShape());
  Server Sv(S, serverShape());
  std::string Err;
  ASSERT_TRUE(Sv.start(&Err)) << Err;

  Client Cl;
  ASSERT_TRUE(Cl.connectTo("127.0.0.1", Sv.port(), &Err)) << Err;

  // INSERT then GET round-trips; GET of an absent key misses.
  EXPECT_EQ(Cl.insert(1, 100), Status::Ok);
  uint64_t V = 0;
  EXPECT_EQ(Cl.get(1, V), Status::Ok);
  EXPECT_EQ(V, 100u);
  EXPECT_EQ(Cl.get(999, V), Status::NotFound);

  // Wire PUT is an upsert (it rides the same multiPut batch path as
  // INSERT): it overwrites an existing key and creates an absent one.
  EXPECT_EQ(Cl.put(1, 200), Status::Ok);
  EXPECT_EQ(Cl.get(1, V), Status::Ok);
  EXPECT_EQ(V, 200u);
  EXPECT_EQ(Cl.put(998, 8), Status::Ok);
  EXPECT_EQ(Cl.get(998, V), Status::Ok);
  EXPECT_EQ(V, 8u);

  // CAS takes only from the expected value.
  EXPECT_EQ(Cl.cas(1, 999, 5), Status::Mismatch);
  EXPECT_EQ(Cl.cas(1, 200, 5), Status::Ok);
  EXPECT_EQ(Cl.get(1, V), Status::Ok);
  EXPECT_EQ(V, 5u);

  // MGET returns present values and tombstones for absent keys.
  ASSERT_EQ(Cl.insert(2, 20), Status::Ok);
  ASSERT_EQ(Cl.insert(3, 30), Status::Ok);
  uint64_t Keys[3] = {2, 3, 777};
  uint64_t Out[3] = {};
  EXPECT_EQ(Cl.multiGet(Keys, 3, Out), Status::Ok);
  EXPECT_EQ(Out[0], 20u);
  EXPECT_EQ(Out[1], 30u);
  EXPECT_EQ(Out[2], kv::Store::Tombstone);

  // RMW adds the delta to every named key atomically.
  uint64_t RmwKeys[2] = {2, 3};
  EXPECT_EQ(Cl.rmwAdd(RmwKeys, 2, 7), Status::Ok);
  EXPECT_EQ(Cl.get(2, V), Status::Ok);
  EXPECT_EQ(V, 27u);
  EXPECT_EQ(Cl.get(3, V), Status::Ok);
  EXPECT_EQ(V, 37u);

  // ERASE hides the key; erasing again reports the miss.
  EXPECT_EQ(Cl.eraseKey(2), Status::Ok);
  EXPECT_EQ(Cl.get(2, V), Status::NotFound);
  EXPECT_EQ(Cl.eraseKey(2), Status::NotFound);

  // STATS reflects the traffic so far.
  uint64_t Stats[StatsWordCount] = {};
  ASSERT_TRUE(Cl.statsProbe(Stats));
  EXPECT_GE(Stats[StatAccepted], 1u);
  EXPECT_GT(Stats[StatRequests], 10u);
  EXPECT_EQ(Stats[StatBadFrames], 0u);

  // SHUTDOWN acks and flags the stop; teardown is clean.
  EXPECT_TRUE(Cl.shutdownServer());
  EXPECT_TRUE(Sv.stopRequested());
  Cl.close();
  Sv.stop();
  EXPECT_EQ(Sv.stats().BadFrames, 0u);
  EXPECT_GE(Sv.stats().Closed, 1u);
}

TEST_F(ServerTest, PipelinedBurstBatchesSameShardOps) {
  kv::Store S(H, storeShape());
  ASSERT_TRUE(S.insert(42, 1));

  ServerConfig C = serverShape();
  // Hold each worker drain pass back 3 ms so the pipelined burst piles up
  // in the shard queue and one multiGet transaction covers many requests.
  C.WorkerDelayUs = 3000;
  Server Sv(S, C);
  std::string Err;
  ASSERT_TRUE(Sv.start(&Err)) << Err;

  Client Cl;
  ASSERT_TRUE(Cl.connectTo("127.0.0.1", Sv.port(), &Err)) << Err;

  // 64 pipelined single-key GETs of one key: all the same shard, so the
  // batcher can merge them NetBatch at a time.
  const int N = 64;
  Frame Req;
  Req.Op = MsgOp::Get;
  Req.Count = 1;
  Req.Words = 1;
  Req.Body[0] = 42;
  for (int I = 0; I < N; ++I) {
    Req.Cid = uint64_t(I) + 1;
    ASSERT_EQ(Cl.send(Req), uint64_t(I) + 1);
  }
  int Got = 0;
  Frame Resp;
  while (Got < N && Cl.recv(Resp)) {
    EXPECT_EQ(Resp.status(), Status::Ok);
    ASSERT_GE(Resp.Words, 1u);
    EXPECT_EQ(Resp.Body[0], 1u);
    ++Got;
  }
  EXPECT_EQ(Got, N);

  Cl.close();
  Sv.stop();
  ServerStats St = Sv.stats();
  EXPECT_EQ(St.Requests, uint64_t(N));
  EXPECT_EQ(St.Responses, uint64_t(N));
  // The acceptance bar for the whole front end: > 1 request per
  // amortizing transaction once queues form.
  EXPECT_GT(St.batchAvg(), 1.5) << "Batches=" << St.Batches
                                << " BatchedOps=" << St.BatchedOps;
  EXPECT_GT(St.MaxQueueDepth, 1u);
}

TEST_F(ServerTest, ShedModeAnswersOverloadedWhenQueuesFill) {
  kv::Store S(H, storeShape());
  ASSERT_TRUE(S.insert(42, 1));

  ServerConfig C = serverShape();
  C.Shed = true;
  C.QueueCap = 2;
  C.WorkerDelayUs = 20000; // Queues saturate long before the first drain.
  Server Sv(S, C);
  std::string Err;
  ASSERT_TRUE(Sv.start(&Err)) << Err;

  Client Cl;
  ASSERT_TRUE(Cl.connectTo("127.0.0.1", Sv.port(), &Err)) << Err;

  const int N = 40;
  Frame Req;
  Req.Op = MsgOp::Get;
  Req.Count = 1;
  Req.Words = 1;
  Req.Body[0] = 42;
  for (int I = 0; I < N; ++I) {
    Req.Cid = uint64_t(I) + 1;
    ASSERT_EQ(Cl.send(Req), uint64_t(I) + 1);
  }
  int Ok = 0, Shed = 0, Got = 0;
  Frame Resp;
  while (Got < N && Cl.recv(Resp)) {
    ++Got;
    if (Resp.status() == Status::Ok)
      ++Ok;
    else if (Resp.status() == Status::Overloaded)
      ++Shed;
    else
      ADD_FAILURE() << "unexpected status " << statusName(Resp.status());
  }
  // Every request is answered — admission shed is a response, not a drop —
  // and with QueueCap=2 the burst must overflow.
  EXPECT_EQ(Got, N);
  EXPECT_GT(Ok, 0);
  EXPECT_GT(Shed, 0);

  Cl.close();
  Sv.stop();
  ServerStats St = Sv.stats();
  EXPECT_EQ(St.ShedQueueFull, uint64_t(Shed));
  EXPECT_LE(St.MaxQueueDepth, 2u);
}

TEST_F(ServerTest, ShedModeTimesOutOverstayedRequests) {
  kv::Store S(H, storeShape());
  ASSERT_TRUE(S.insert(42, 1));

  ServerConfig C = serverShape();
  C.Shed = true;
  C.DeadlineUs = 1000;     // 1 ms budget from arrival...
  C.WorkerDelayUs = 10000; // ...but the first drain pass is 10 ms away.
  Server Sv(S, C);
  std::string Err;
  ASSERT_TRUE(Sv.start(&Err)) << Err;

  Client Cl;
  ASSERT_TRUE(Cl.connectTo("127.0.0.1", Sv.port(), &Err)) << Err;
  uint64_t V = 0;
  EXPECT_EQ(Cl.get(42, V), Status::DeadlineExceeded);

  Cl.close();
  Sv.stop();
  EXPECT_GE(Sv.stats().ShedDeadline, 1u);
}

TEST_F(ServerTest, FramingDamageClosesTheConnection) {
  kv::Store S(H, storeShape());
  Server Sv(S, serverShape());
  std::string Err;
  ASSERT_TRUE(Sv.start(&Err)) << Err;

  Client Cl;
  ASSERT_TRUE(Cl.connectTo("127.0.0.1", Sv.port(), &Err)) << Err;
  // A full header's worth of garbage: wrong magic is unrecoverable on a
  // byte stream, so the server must close rather than answer.
  uint8_t Junk[FrameHeaderSize];
  for (size_t I = 0; I < sizeof(Junk); ++I)
    Junk[I] = uint8_t(0xA5 + I);
  ASSERT_EQ(::send(Cl.fd(), Junk, sizeof(Junk), 0), ssize_t(sizeof(Junk)));
  Frame Resp;
  EXPECT_FALSE(Cl.recv(Resp)) << "expected EOF, got a response frame";

  // The server is still healthy for well-framed clients.
  Client Cl2;
  ASSERT_TRUE(Cl2.connectTo("127.0.0.1", Sv.port(), &Err)) << Err;
  EXPECT_EQ(Cl2.insert(5, 50), Status::Ok);

  Cl.close();
  Cl2.close();
  Sv.stop();
  ServerStats St = Sv.stats();
  EXPECT_EQ(St.BadFrames, 1u);
  EXPECT_GE(St.Closed, 1u);
}

TEST_F(ServerTest, SurvivesOneByteReadsAndWrites) {
  // net_read / net_write fault sites with arg 1: every server-side socket
  // read and write is capped to a single byte, forcing the partial-frame
  // decode path and the partial-flush EPOLLOUT resume path on every
  // request. Correctness must be unchanged.
  FaultConfig FC;
  FC.Seed = 7;
  FC.Prob[unsigned(FaultSite::NetRead)] = UINT32_MAX;
  FC.Arg[unsigned(FaultSite::NetRead)] = 1;
  FC.Prob[unsigned(FaultSite::NetWrite)] = UINT32_MAX;
  FC.Arg[unsigned(FaultSite::NetWrite)] = 1;
  FaultInjector::arm(FC);

  kv::Store S(H, storeShape());
  Server Sv(S, serverShape());
  std::string Err;
  ASSERT_TRUE(Sv.start(&Err)) << Err;

  Client Cl;
  ASSERT_TRUE(Cl.connectTo("127.0.0.1", Sv.port(), &Err)) << Err;
  for (uint64_t K = 0; K < 30; ++K)
    ASSERT_EQ(Cl.insert(K, K * 3), Status::Ok) << "key " << K;
  for (uint64_t K = 0; K < 30; ++K) {
    uint64_t V = 0;
    ASSERT_EQ(Cl.get(K, V), Status::Ok) << "key " << K;
    EXPECT_EQ(V, K * 3);
  }
  EXPECT_GT(FaultInjector::firedCount(FaultSite::NetRead), 0u);
  EXPECT_GT(FaultInjector::firedCount(FaultSite::NetWrite), 0u);

  Cl.close();
  Sv.stop();
  EXPECT_EQ(Sv.stats().BadFrames, 0u);
  FaultInjector::disarm();
}

TEST_F(ServerTest, AcceptFaultDropsConnectionsWithoutWedgingTheServer) {
  kv::Store S(H, storeShape());
  Server Sv(S, serverShape());
  std::string Err;
  ASSERT_TRUE(Sv.start(&Err)) << Err;

  // net_accept at probability 1: the acceptor drops every new connection.
  FaultConfig FC;
  FC.Seed = 11;
  FC.Prob[unsigned(FaultSite::NetAccept)] = UINT32_MAX;
  FaultInjector::arm(FC);

  Client Dropped;
  ASSERT_TRUE(Dropped.connectTo("127.0.0.1", Sv.port(), &Err)) << Err;
  uint64_t V = 0;
  // The TCP handshake lands in the backlog, but the server hung up: the
  // first round trip fails instead of answering.
  EXPECT_EQ(Dropped.get(1, V), Status::BadRequest);
  Dropped.close();

  // Disarmed, the same server accepts and serves again.
  FaultInjector::disarm();
  Client Cl;
  ASSERT_TRUE(Cl.connectTo("127.0.0.1", Sv.port(), &Err)) << Err;
  EXPECT_EQ(Cl.insert(9, 90), Status::Ok);
  Cl.close();

  Sv.stop();
  ServerStats St = Sv.stats();
  EXPECT_GE(St.DroppedAccepts, 1u);
  EXPECT_EQ(FaultInjector::firedCount(FaultSite::NetAccept),
            St.DroppedAccepts);
}

TEST_F(ServerTest, StartKillJoinLoopWithTrafficInFlight) {
  // The satellite-6 teardown drill: repeatedly start a server, point
  // hammering clients at it, then stop() with their requests still in
  // flight. Every iteration must come back joined, with no stuck thread
  // and no crash; clients are allowed to see Overloaded or a closed
  // connection, never a wrong answer.
  kv::Store S(H, storeShape());
  ASSERT_TRUE(S.insert(1, 11));

  for (int Round = 0; Round < 5; ++Round) {
    ServerConfig C = serverShape();
    Server Sv(S, C);
    std::string Err;
    ASSERT_TRUE(Sv.start(&Err)) << "round " << Round << ": " << Err;

    std::atomic<uint64_t> GoodReads{0};
    std::vector<std::thread> Clients;
    for (int T = 0; T < 3; ++T)
      Clients.emplace_back([&, T] {
        Client Cl;
        std::string CErr;
        if (!Cl.connectTo("127.0.0.1", Sv.port(), &CErr))
          return; // Raced the stop; nothing to verify.
        for (uint64_t I = 0;; ++I) {
          uint64_t V = 0;
          Status St = Cl.get(1, V);
          if (St == Status::Ok) {
            if (V != 11)
              ADD_FAILURE() << "client " << T << " read wrong value " << V;
            GoodReads.fetch_add(1, std::memory_order_relaxed);
          } else if (St != Status::Overloaded) {
            return; // Connection torn down by the stop.
          }
        }
      });

    // Let traffic flow, then kill the server under it.
    while (GoodReads.load(std::memory_order_relaxed) < 50)
      std::this_thread::yield();
    Sv.requestStop();
    Sv.stop();
    for (std::thread &T : Clients)
      T.join();

    ServerStats St = Sv.stats();
    EXPECT_GE(St.Accepted, 1u) << "round " << Round;
    EXPECT_EQ(St.BadFrames, 0u) << "round " << Round;
    EXPECT_GT(GoodReads.load(), 0u) << "round " << Round;
  }
}

} // namespace
