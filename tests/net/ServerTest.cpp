//===- tests/net/ServerTest.cpp - Loopback server end-to-end tests -------===//
//
// Part of the SATM project, reproducing Shpeisman et al., PLDI 2007.
//
//===----------------------------------------------------------------------===//
//
// In-process net::Server against a real kv::Store, exercised over
// loopback with net::Client: per-opcode correctness, pipelined batching
// (a burst sent in one write() arrives in one read(), so batchAvg must
// exceed 1), the I/O thread's busy polling lapsing into a blocking
// wait, both shed paths (per-batch shard cap and execution deadline),
// two I/O threads running transactions on the same shards at once, a
// peer that resets with requests still in the batch, framing-damage
// connection close, the net_accept / net_read / net_write fault
// sites, and the start/connect/kill/join loop that certifies stop() is
// clean with traffic in flight.
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
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

using namespace satm;
using namespace satm::net;

namespace {

/// A request frame whose body is \p Words.
Frame request(MsgOp Op, uint64_t Cid, std::initializer_list<uint64_t> Words,
              uint16_t Count = 1) {
  Frame F;
  F.Op = Op;
  F.Cid = Cid;
  F.Count = Count;
  F.Words = uint32_t(Words.size());
  uint32_t I = 0;
  for (uint64_t W : Words)
    F.Body[I++] = W;
  return F;
}

/// Sends \p Frames in one write(): on loopback the burst arrives as one
/// segment, so the server decodes all of it from one read().
void sendBurst(Client &Cl, const std::vector<Frame> &Frames) {
  std::vector<uint8_t> Buf;
  uint8_t Enc[MaxFrameBytes];
  for (const Frame &F : Frames) {
    size_t Len = encodeFrame(Enc, F);
    Buf.insert(Buf.end(), Enc, Enc + Len);
  }
  ASSERT_EQ(::send(Cl.fd(), Buf.data(), Buf.size(), MSG_NOSIGNAL),
            ssize_t(Buf.size()));
}

std::vector<Frame> getBurst(uint64_t Key, int N) {
  std::vector<Frame> Fs;
  for (int I = 0; I < N; ++I)
    Fs.push_back(request(MsgOp::Get, uint64_t(I) + 1, {Key}));
  return Fs;
}

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

  Server Sv(S, serverShape());
  std::string Err;
  ASSERT_TRUE(Sv.start(&Err)) << Err;

  Client Cl;
  ASSERT_TRUE(Cl.connectTo("127.0.0.1", Sv.port(), &Err)) << Err;

  // 64 pipelined single-key GETs of one key in one write: the server
  // decodes them from one read and executes them NetBatch at a time.
  const int N = 64;
  sendBurst(Cl, getBurst(42, N));
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
  // amortizing transaction once requests arrive together.
  EXPECT_GT(St.batchAvg(), 1.5) << "Batches=" << St.Batches
                                << " BatchedOps=" << St.BatchedOps;
  EXPECT_GT(St.MaxQueueDepth, 1u);
}

TEST_F(ServerTest, BusyPollingLapsesIntoABlockingWait) {
  kv::Store S(H, storeShape());
  ASSERT_TRUE(S.insert(42, 1));

  ServerConfig C = serverShape();
  C.IoThreads = 1;
  Server Sv(S, C);
  std::string Err;
  ASSERT_TRUE(Sv.start(&Err)) << Err;

  Client Cl;
  ASSERT_TRUE(Cl.connectTo("127.0.0.1", Sv.port(), &Err)) << Err;

  // A sender pipelining a burst every few microseconds keeps the I/O
  // thread's batches close together, so it polls before it blocks and
  // most bursts arrive while it polls. Each idle gap outlasts the poll
  // window many times over: the thread must have fallen through to a
  // blocking wait, and the next burst must wake it.
  const int Rounds = 3, Bursts = 200, PerBurst = 4;
  Frame Resp;
  for (int Round = 0; Round < Rounds; ++Round) {
    std::thread Sender([&] {
      for (int B = 0; B < Bursts; ++B) {
        sendBurst(Cl, getBurst(42, PerBurst));
        auto Next = std::chrono::steady_clock::now() +
                    std::chrono::microseconds(5);
        while (std::chrono::steady_clock::now() < Next)
          ;
      }
    });
    for (int I = 0; I < Bursts * PerBurst; ++I) {
      ASSERT_TRUE(Cl.recv(Resp));
      EXPECT_EQ(Resp.status(), Status::Ok);
    }
    Sender.join();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }

  // A burst left unread while the thread may still be polling: stop()
  // must wake it, and every request it decoded must be answered.
  sendBurst(Cl, getBurst(42, PerBurst));
  Sv.stop();
  Cl.close();
  ServerStats St = Sv.stats();
  EXPECT_GE(St.Requests, uint64_t(Rounds * Bursts * PerBurst));
  EXPECT_EQ(St.Responses, St.Requests);
}

TEST_F(ServerTest, ShedModeAnswersOverloadedWhenQueuesFill) {
  kv::Store S(H, storeShape());
  ASSERT_TRUE(S.insert(42, 1));

  ServerConfig C = serverShape();
  C.Shed = true;
  C.QueueCap = 2; // At most 2 requests of one shard per executed batch.
  Server Sv(S, C);
  std::string Err;
  ASSERT_TRUE(Sv.start(&Err)) << Err;

  Client Cl;
  ASSERT_TRUE(Cl.connectTo("127.0.0.1", Sv.port(), &Err)) << Err;

  // 40 GETs of one shard in one read: the first 2 enter the batch, the
  // rest are shed before the batch reaches NetBatch and executes.
  const int N = 40;
  sendBurst(Cl, getBurst(42, N));
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
  C.DeadlineUs = 1; // 1 us budget from the read() that delivered it...
  C.NetBatch = 1;   // ...but each request waits for every one before it.
  Server Sv(S, C);
  std::string Err;
  ASSERT_TRUE(Sv.start(&Err)) << Err;

  Client Cl;
  ASSERT_TRUE(Cl.connectTo("127.0.0.1", Sv.port(), &Err)) << Err;

  // 64 GETs from one read run one batch each, every batch a transaction
  // plus a send(): the later requests overstay their deadline before
  // their turn comes and are answered without a transaction.
  const int N = 64;
  sendBurst(Cl, getBurst(42, N));
  int Got = 0, Late = 0;
  Frame Resp;
  while (Got < N && Cl.recv(Resp)) {
    ++Got;
    if (Resp.status() == Status::DeadlineExceeded)
      ++Late;
    else if (Resp.status() != Status::Ok)
      ADD_FAILURE() << "unexpected status " << statusName(Resp.status());
  }
  EXPECT_EQ(Got, N);
  EXPECT_GE(Late, 1);

  Cl.close();
  Sv.stop();
  EXPECT_GE(Sv.stats().ShedDeadline, 1u);
}

TEST_F(ServerTest, TwoIoThreadsShareShardsIsolated) {
  // Two connections land on two I/O threads, which execute their own
  // requests: nothing serializes them per shard any more, so the STM
  // alone must keep their transactions isolated and ordered.
  kv::Store S(H, storeShape());
  constexpr uint64_t LedgerBase = 1000, LedgerInit = 1000;
  constexpr unsigned LedgerKeys = 12;
  for (unsigned K = 0; K < LedgerKeys; ++K)
    ASSERT_TRUE(S.insert(LedgerBase + K, LedgerInit));
  // Eight data keys, all of one shard; client c writes keys 4c..4c+3.
  std::vector<uint64_t> Data;
  for (uint64_t K = 5000; Data.size() < 8; ++K)
    if (S.shardOf(K) == S.shardOf(5000))
      Data.push_back(K);
  for (uint64_t K : Data)
    ASSERT_TRUE(S.insert(K, 0));

  ServerConfig C = serverShape();
  C.IoThreads = 2;
  Server Sv(S, C);
  std::string Err;
  ASSERT_TRUE(Sv.start(&Err)) << Err;
  // Consecutive accepts go to different I/O threads.
  Client Cls[2];
  for (Client &Cl : Cls)
    ASSERT_TRUE(Cl.connectTo("127.0.0.1", Sv.port(), &Err)) << Err;

  const int Rounds = 150;
  std::vector<std::thread> Ts;
  for (int Cn = 0; Cn < 2; ++Cn)
    Ts.emplace_back([&, Cn] {
      Client &Cl = Cls[Cn];
      // Client 0 adds +1 to ledger keys 0..7, client 1 adds -1 to keys
      // 4..11 (two's complement), so the ledger sum is conserved and
      // keys 4..7 net out.
      const uint64_t First = LedgerBase + (Cn ? 4 : 0);
      const uint64_t Delta = Cn ? ~uint64_t(0) : 1;
      uint64_t Seen[8] = {}; // Last value read per data key.
      uint64_t Cid = 0;
      for (int R = 0; R < Rounds; ++R) {
        std::vector<Frame> Fs;
        std::map<uint64_t, int> Kind; // 0 rmw, 1 mget, 2 put, 3+i get i
        Frame Rmw = request(MsgOp::Rmw, ++Cid, {}, 8);
        for (unsigned I = 0; I < 8; ++I)
          Rmw.Body[I] = First + I;
        Rmw.Body[8] = Delta;
        Rmw.Words = 9;
        Fs.push_back(Rmw);
        Kind[Cid] = 0;
        Frame Mget = request(MsgOp::MultiGet, ++Cid, {}, LedgerKeys);
        for (unsigned I = 0; I < LedgerKeys; ++I)
          Mget.Body[I] = LedgerBase + I;
        Mget.Words = LedgerKeys;
        Fs.push_back(Mget);
        Kind[Cid] = 1;
        for (int J = 0; J < 4; ++J) {
          Fs.push_back(request(MsgOp::Put, ++Cid,
                               {Data[size_t(4 * Cn + J)], uint64_t(R + 1)}));
          Kind[Cid] = 2;
        }
        for (int I = 0; I < 8; ++I) {
          Fs.push_back(request(MsgOp::Get, ++Cid, {Data[size_t(I)]}));
          Kind[Cid] = 3 + I;
        }
        sendBurst(Cl, Fs);
        for (size_t Got = 0; Got < Fs.size(); ++Got) {
          Frame Resp;
          ASSERT_TRUE(Cl.recv(Resp)) << "client " << Cn << " round " << R;
          ASSERT_EQ(Kind.count(Resp.Cid), 1u) << "foreign cid " << Resp.Cid;
          ASSERT_EQ(Resp.status(), Status::Ok)
              << msgOpName(Resp.Op) << " round " << R;
          int K = Kind[Resp.Cid];
          if (K == 1) {
            // One snapshot of the whole ledger: each client's increments
            // are atomic, so the three key groups each hold one value and
            // the overlap is exactly the sum of both clients' effects.
            ASSERT_EQ(Resp.Words, LedgerKeys);
            const uint64_t *V = Resp.Body;
            for (unsigned G = 0; G < 3; ++G)
              for (unsigned I = 1; I < 4; ++I)
                EXPECT_EQ(V[4 * G + I], V[4 * G]) << "torn group " << G;
            EXPECT_EQ(V[4], V[0] + V[8] - LedgerInit) << "torn overlap";
          } else if (K >= 3) {
            // Each data key's value only moves forward.
            ASSERT_EQ(Resp.Words, 1u);
            EXPECT_GE(Resp.Body[0], Seen[K - 3]) << "key " << Data[K - 3];
            Seen[K - 3] = Resp.Body[0];
          }
        }
      }
    });
  for (std::thread &T : Ts)
    T.join();

  uint64_t Sum = 0, V = 0;
  for (unsigned K = 0; K < LedgerKeys; ++K) {
    ASSERT_EQ(Cls[0].get(LedgerBase + K, V), Status::Ok);
    uint64_t Want = K < 4   ? LedgerInit + Rounds
                    : K < 8 ? LedgerInit
                            : LedgerInit - Rounds;
    EXPECT_EQ(V, Want) << "ledger key " << K;
    Sum += V;
  }
  EXPECT_EQ(Sum, LedgerKeys * LedgerInit);
  for (uint64_t K : Data) {
    ASSERT_EQ(Cls[1].get(K, V), Status::Ok);
    EXPECT_EQ(V, uint64_t(Rounds));
  }

  for (Client &Cl : Cls)
    Cl.close();
  Sv.stop();
  ServerStats St = Sv.stats();
  EXPECT_EQ(St.BadFrames, 0u);
  EXPECT_EQ(St.Requests, St.Responses);
}

TEST_F(ServerTest, PeerResetMidBurstLeavesTheIoThreadServing) {
  // A peer pipelines a burst and resets (SO_LINGER 0) while its requests
  // may still be in the batch. The server must drop those responses
  // without touching the socket again — MSG_NOSIGNAL keeps a write to
  // the reset peer from killing this process with SIGPIPE, and a write
  // to its recycled fd number would show up at the next connection as a
  // foreign correlation id — and keep serving the other connections of
  // the same I/O thread.
  kv::Store S(H, storeShape());
  ASSERT_TRUE(S.insert(7, 70));
  ServerConfig C = serverShape();
  C.IoThreads = 1;
  Server Sv(S, C);
  std::string Err;
  ASSERT_TRUE(Sv.start(&Err)) << Err;

  Client Steady;
  ASSERT_TRUE(Steady.connectTo("127.0.0.1", Sv.port(), &Err)) << Err;
  const int Rounds = 20;
  for (int R = 0; R < Rounds; ++R) {
    Client Peer;
    ASSERT_TRUE(Peer.connectTo("127.0.0.1", Sv.port(), &Err)) << Err;
    std::vector<Frame> Fs;
    for (int I = 0; I < 256; ++I)
      Fs.push_back(I % 2 ? request(MsgOp::Get, uint64_t(I) + 1, {7})
                         : request(MsgOp::Put, uint64_t(I) + 1,
                                   {uint64_t(100 + I % 8), uint64_t(I)}));
    sendBurst(Peer, Fs);
    linger L{1, 0};
    ASSERT_EQ(::setsockopt(Peer.fd(), SOL_SOCKET, SO_LINGER, &L, sizeof(L)),
              0);
    Peer.close(); // RST, not FIN.

    // A fresh connection likely reuses the reset peer's fd number.
    Client Next;
    ASSERT_TRUE(Next.connectTo("127.0.0.1", Sv.port(), &Err)) << Err;
    for (Client *Cl : {&Next, &Steady}) {
      const int N = 16;
      std::vector<Frame> Gs;
      for (int I = 0; I < N; ++I)
        Gs.push_back(request(MsgOp::Get, uint64_t(10000 * (R + 1) + I), {7}));
      sendBurst(*Cl, Gs);
      for (int I = 0; I < N; ++I) {
        Frame Resp;
        ASSERT_TRUE(Cl->recv(Resp)) << "round " << R;
        EXPECT_GE(Resp.Cid, uint64_t(10000 * (R + 1))) << "foreign response";
        EXPECT_LT(Resp.Cid, uint64_t(10000 * (R + 1) + N))
            << "foreign response";
        EXPECT_EQ(Resp.status(), Status::Ok);
        EXPECT_EQ(Resp.Body[0], 70u);
      }
    }
    Next.close();
  }

  Steady.close();
  Sv.stop();
  ServerStats St = Sv.stats();
  EXPECT_EQ(St.BadFrames, 0u);
  EXPECT_GE(St.Closed, uint64_t(2 * Rounds));
  EXPECT_LE(St.Responses, St.Requests);
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
