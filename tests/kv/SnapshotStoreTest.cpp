//===- tests/kv/SnapshotStoreTest.cpp - KV snapshot read plane -----------===//
//
// Part of the SATM project, reproducing Shpeisman et al., PLDI 2007.
//
//===----------------------------------------------------------------------===//
//
// Store::snapshotGet / snapshotMultiGet: single-thread semantics against
// insert/erase/rmw, and the conservation stress — concurrent transactional
// transfers against wait-free snapshot multi-gets, where every snapshot
// must sum to the invariant and the read side must prove it never aborted
// or re-executed (the plane's zero-abort contract, DESIGN.md §10).
//
//===----------------------------------------------------------------------===//

#include "kv/Store.h"
#include "rt/Heap.h"
#include "stm/Snapshot.h"
#include "stm/Stats.h"
#include "stm/Txn.h"

#include "gtest/gtest.h"

#include <atomic>
#include <thread>
#include <vector>

using namespace satm;
using namespace satm::kv;
using namespace satm::stm;

namespace {

StoreConfig tiny() {
  StoreConfig C;
  C.Shards = 4;
  C.CapacityPerShard = 16;
  return C;
}

class SnapshotStoreTest : public ::testing::Test {
protected:
  SnapshotStoreTest() {
    Config C;
    C.SnapshotEnabled = true;
    SC = std::make_unique<ScopedConfig>(C);
    statsReset();
  }
  ~SnapshotStoreTest() override {
    // The version table keys raw Object* into this fixture's heap: clear
    // it before the heap dies so the next test cannot alias stale keys.
    snap::resetTable();
  }
  std::unique_ptr<ScopedConfig> SC;
  rt::Heap H;
};

TEST_F(SnapshotStoreTest, GetSemantics) {
  Store S(H, tiny());
  ASSERT_TRUE(S.insert(1, 100));
  ASSERT_TRUE(S.insert(2, 200));

  Word V = 0;
  EXPECT_TRUE(S.snapshotGet(1, V));
  EXPECT_EQ(V, 100u);
  EXPECT_TRUE(S.snapshotGet(2, V));
  EXPECT_EQ(V, 200u);
  EXPECT_FALSE(S.snapshotGet(3, V)); // never inserted

  ASSERT_TRUE(S.erase(2));
  EXPECT_FALSE(S.snapshotGet(2, V)); // erased reads as absent
  EXPECT_EQ(V, 200u);                // ...and Out is left untouched
}

TEST_F(SnapshotStoreTest, MultiGetMixedHitMiss) {
  Store S(H, tiny());
  ASSERT_TRUE(S.insert(10, 7));
  ASSERT_TRUE(S.insert(30, 9));

  const Word Keys[4] = {10, 20, 30, 40};
  Word Out[4] = {1, 1, 1, 1};
  EXPECT_EQ(S.snapshotMultiGet(Keys, 4, Out), 2u);
  EXPECT_EQ(Out[0], 7u);
  EXPECT_EQ(Out[1], Store::Tombstone);
  EXPECT_EQ(Out[2], 9u);
  EXPECT_EQ(Out[3], Store::Tombstone);
}

TEST_F(SnapshotStoreTest, SeesCommittedRmwUpdates) {
  Store S(H, tiny());
  ASSERT_TRUE(S.insert(5, 50));
  const Word K = 5;
  ASSERT_TRUE(S.rmwAdd(&K, 1, 25));

  Word V = 0;
  EXPECT_TRUE(S.snapshotGet(5, V));
  EXPECT_EQ(V, 75u);
}

TEST_F(SnapshotStoreTest, ReadOnlyPhaseIsExactlyZeroAbort) {
  Store S(H, tiny());
  ASSERT_TRUE(S.insert(1, 11));
  ASSERT_TRUE(S.insert(2, 22));
  const Word Keys[2] = {1, 2};

  statsReset();
  constexpr int Threads = 4, PerThread = 200;
  std::vector<std::thread> Ts;
  for (int T = 0; T < Threads; ++T)
    Ts.emplace_back([&] {
      Word Out[2];
      for (int I = 0; I < PerThread; ++I)
        S.snapshotMultiGet(Keys, 2, Out);
    });
  for (auto &T : Ts)
    T.join();

  // A read-only snapshot completes without a commit, an abort, or a
  // single record CAS — the counters are exact, not bounds.
  StatsCounters C = statsSnapshot();
  EXPECT_EQ(C.SnapshotTxns, uint64_t(Threads) * PerThread);
  EXPECT_EQ(C.TxnCommits, 0u);
  EXPECT_EQ(C.TxnAborts, 0u);
  EXPECT_GE(C.SnapshotReads, uint64_t(Threads) * PerThread * 2);
}

TEST_F(SnapshotStoreTest, ConservationUnderConcurrentTransfers) {
  StoreConfig SC2;
  SC2.Shards = 4;
  SC2.CapacityPerShard = 64;
  Store S(H, SC2);

  constexpr int NumKeys = 16;
  constexpr Word PerKey = 1000;
  constexpr Word Invariant = NumKeys * PerKey;
  Word AllKeys[NumKeys];
  for (int I = 0; I < NumKeys; ++I) {
    AllKeys[I] = Word(I + 1);
    ASSERT_TRUE(S.insert(AllKeys[I], PerKey));
  }

  statsReset();
  constexpr int Writers = 2, Readers = 2, TransfersPerWriter = 2000;
  std::atomic<int> WritersDone{0};
  std::atomic<uint64_t> BadSnapshots{0};
  std::atomic<uint64_t> SnapshotsTaken{0};
  std::atomic<uint64_t> BodyRuns{0};

  std::vector<std::thread> Ts;
  for (int W = 0; W < Writers; ++W)
    Ts.emplace_back([&, W] {
      uint64_t R = 0x9e3779b97f4a7c15ull * uint64_t(W + 1);
      for (int I = 0; I < TransfersPerWriter; ++I) {
        R = R * 6364136223846793005ull + 1442695040888963407ull;
        int A = int((R >> 33) % NumKeys);
        int B = int((R >> 13) % NumKeys);
        if (A == B)
          B = (B + 1) % NumKeys;
        Word D = (R >> 21) % 7 + 1;
        const Word Pair[2] = {AllKeys[A], AllKeys[B]};
        // Transfer D from the richer to the poorer: one transaction,
        // sum-preserving, and no value ever wraps below zero (a wrapped
        // value could collide with the Tombstone sentinel).
        bool Ok = S.readModifyWrite(Pair, 2, [D](Word *Vals, size_t) {
          if (Vals[0] >= Vals[1]) {
            Vals[0] -= D;
            Vals[1] += D;
          } else {
            Vals[1] -= D;
            Vals[0] += D;
          }
        });
        ASSERT_TRUE(Ok);
      }
      WritersDone.fetch_add(1, std::memory_order_release);
    });

  for (int R = 0; R < Readers; ++R)
    Ts.emplace_back([&] {
      Word Out[NumKeys];
      do {
        size_t Hits = S.snapshotMultiGet(AllKeys, NumKeys, Out);
        SnapshotsTaken.fetch_add(1, std::memory_order_relaxed);
        Word Sum = 0;
        for (int I = 0; I < NumKeys; ++I)
          Sum += Out[I];
        if (Hits != NumKeys || Sum != Invariant)
          BadSnapshots.fetch_add(1, std::memory_order_relaxed);
      } while (WritersDone.load(std::memory_order_acquire) < Writers);
      // One run each with an execution probe after the churn too: the
      // body must run exactly once per snapshot even under load.
      Txn::runSnapshot([&] {
        BodyRuns.fetch_add(1, std::memory_order_relaxed);
        Txn &Tx = Txn::forThisThread();
        Word Sum = 0;
        for (int I = 0; I < NumKeys; ++I) {
          rt::Object *V = S.valueObjectFor(AllKeys[I]);
          ASSERT_NE(V, nullptr);
          Sum += Tx.read(V, 0);
        }
        EXPECT_EQ(Sum, Invariant);
      });
    });

  for (auto &T : Ts)
    T.join();

  // Every observed snapshot conserved the sum — no torn multi-gets.
  EXPECT_EQ(BadSnapshots.load(), 0u);
  EXPECT_GE(SnapshotsTaken.load(), uint64_t(Readers));
  EXPECT_EQ(BodyRuns.load(), uint64_t(Readers));

  // The writers churned (TransfersPerWriter commits each, plus retries),
  // yet the snapshot plane took zero aborts: every snapshot transaction
  // that began also completed, first try.
  StatsCounters C = statsSnapshot();
  EXPECT_EQ(C.SnapshotTxns, SnapshotsTaken.load() + BodyRuns.load());
  EXPECT_GE(C.TxnCommits, uint64_t(Writers) * TransfersPerWriter);
  EXPECT_GE(C.SnapshotPublishes, uint64_t(Writers) * TransfersPerWriter);

  // Ground truth after the dust settles.
  Word Out[NumKeys];
  ASSERT_EQ(S.multiGet(AllKeys, NumKeys, Out), size_t(NumKeys));
  Word Sum = 0;
  for (int I = 0; I < NumKeys; ++I)
    Sum += Out[I];
  EXPECT_EQ(Sum, Invariant);
}

} // namespace
