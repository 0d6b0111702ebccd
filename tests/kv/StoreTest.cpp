//===- tests/kv/StoreTest.cpp - SATM-KV store semantics ------------------===//
//
// Part of the SATM project, reproducing Shpeisman et al., PLDI 2007.
//
//===----------------------------------------------------------------------===//
//
// Single-threaded semantics of the two access planes: the transactional
// multi-key operations, the barrier-plane GET/PUT fast paths, tombstone
// erase/resurrect, probe displacement, shard-full reporting, and the DEA
// lifecycle of value objects (born Private, published by the insert's
// transactional ref store), and the value-record accounting under
// injected aborts. Concurrency is covered by KvStressTest (real
// threads) and by the explorer model in tests/check/KvModelTest.
//
//===----------------------------------------------------------------------===//

#include "kv/Store.h"

#include "stm/Config.h"
#include "stm/Dea.h"
#include "support/FaultInjector.h"

#include "gtest/gtest.h"

#include <string>
#include <vector>

using namespace satm;
using namespace satm::kv;
using namespace satm::stm;

namespace {

StoreConfig tiny() {
  StoreConfig C;
  C.Shards = 4;
  // Room for hash skew: keys 0..19 put 10 keys into one of the 4 shards.
  C.CapacityPerShard = 16;
  return C;
}

TEST(KvStore, GetOnEmptyMisses) {
  rt::Heap H;
  Store S(H, tiny());
  Word Out = 123;
  EXPECT_FALSE(S.get(1, Out));
  EXPECT_EQ(S.size(), 0u);
}

TEST(KvStore, InsertThenGetRoundTrips) {
  rt::Heap H;
  Store S(H, tiny());
  for (Word K = 0; K < 20; ++K)
    ASSERT_TRUE(S.insert(K, K * 10 + 1));
  EXPECT_EQ(S.size(), 20u);
  for (Word K = 0; K < 20; ++K) {
    Word Out = 0;
    ASSERT_TRUE(S.get(K, Out)) << "key " << K;
    EXPECT_EQ(Out, K * 10 + 1);
  }
  Word Out;
  EXPECT_FALSE(S.get(999, Out));
}

TEST(KvStore, InsertOverwritesInPlace) {
  rt::Heap H;
  Store S(H, tiny());
  ASSERT_TRUE(S.insert(7, 1));
  ASSERT_TRUE(S.insert(7, 2));
  Word Out = 0;
  ASSERT_TRUE(S.get(7, Out));
  EXPECT_EQ(Out, 2u);
  EXPECT_EQ(S.size(), 1u) << "overwrite must not claim a second slot";
}

TEST(KvStore, PutFastOnlyHitsExistingKeys) {
  rt::Heap H;
  Store S(H, tiny());
  EXPECT_FALSE(S.putFast(5, 50)) << "no index entry yet";
  ASSERT_TRUE(S.insert(5, 1));
  EXPECT_TRUE(S.putFast(5, 50));
  Word Out = 0;
  ASSERT_TRUE(S.get(5, Out));
  EXPECT_EQ(Out, 50u);
}

TEST(KvStore, PutTakesInsertPathWhenMissing) {
  rt::Heap H;
  Store S(H, tiny());
  EXPECT_TRUE(S.put(9, 90));
  Word Out = 0;
  ASSERT_TRUE(S.get(9, Out));
  EXPECT_EQ(Out, 90u);
  EXPECT_TRUE(S.put(9, 91)); // Now the fast path.
  ASSERT_TRUE(S.get(9, Out));
  EXPECT_EQ(Out, 91u);
  EXPECT_EQ(S.size(), 1u);
}

TEST(KvStore, EraseTombstonesAndResurrects) {
  rt::Heap H;
  Store S(H, tiny());
  ASSERT_TRUE(S.insert(3, 30));
  EXPECT_TRUE(S.erase(3));
  Word Out = 77;
  EXPECT_FALSE(S.get(3, Out)) << "erased key reads as absent";
  EXPECT_FALSE(S.erase(3)) << "double erase";
  EXPECT_FALSE(S.erase(999)) << "erase of never-inserted key";
  // The index entry stays resident; size() counts it.
  EXPECT_EQ(S.size(), 1u);
  // PUT over a tombstone resurrects through either plane.
  EXPECT_TRUE(S.put(3, 31));
  ASSERT_TRUE(S.get(3, Out));
  EXPECT_EQ(Out, 31u);
}

TEST(KvStore, CasSemantics) {
  rt::Heap H;
  Store S(H, tiny());
  ASSERT_TRUE(S.insert(4, 40));
  EXPECT_FALSE(S.cas(4, 41, 42)) << "expected mismatch";
  EXPECT_TRUE(S.cas(4, 40, 42));
  Word Out = 0;
  ASSERT_TRUE(S.get(4, Out));
  EXPECT_EQ(Out, 42u);
  EXPECT_FALSE(S.cas(999, 0, 1)) << "missing key";
  S.erase(4);
  EXPECT_FALSE(S.cas(4, Store::Tombstone, 1)) << "erased key cannot CAS";
}

TEST(KvStore, MultiGetSnapshotsAndFlagsMissing) {
  rt::Heap H;
  Store S(H, tiny());
  ASSERT_TRUE(S.insert(1, 10));
  ASSERT_TRUE(S.insert(2, 20));
  S.erase(2);
  Word Keys[3] = {1, 2, 777};
  Word Out[3] = {0, 0, 0};
  EXPECT_EQ(S.multiGet(Keys, 3, Out), 1u);
  EXPECT_EQ(Out[0], 10u);
  EXPECT_EQ(Out[1], Store::Tombstone);
  EXPECT_EQ(Out[2], Store::Tombstone);
}

TEST(KvStore, RmwAddAppliesToAllOrNone) {
  rt::Heap H;
  Store S(H, tiny());
  ASSERT_TRUE(S.insert(1, 100));
  ASSERT_TRUE(S.insert(2, 200));
  Word Keys[2] = {1, 2};
  EXPECT_TRUE(S.rmwAdd(Keys, 2, 5));
  Word Out = 0;
  ASSERT_TRUE(S.get(1, Out));
  EXPECT_EQ(Out, 105u);
  ASSERT_TRUE(S.get(2, Out));
  EXPECT_EQ(Out, 205u);
  // One key missing: no effects at all.
  Word Bad[2] = {1, 999};
  EXPECT_FALSE(S.rmwAdd(Bad, 2, 5));
  ASSERT_TRUE(S.get(1, Out));
  EXPECT_EQ(Out, 105u);
}

TEST(KvStore, ReadModifyWriteMutatesInPlace) {
  rt::Heap H;
  Store S(H, tiny());
  ASSERT_TRUE(S.insert(1, 3));
  ASSERT_TRUE(S.insert(2, 4));
  Word Keys[2] = {1, 2};
  ASSERT_TRUE(S.readModifyWrite(Keys, 2, [](Word *V, size_t N) {
    ASSERT_EQ(N, 2u);
    Word Product = V[0] * V[1];
    V[0] = Product;
    V[1] = Product + 1;
  }));
  Word Out = 0;
  ASSERT_TRUE(S.get(1, Out));
  EXPECT_EQ(Out, 12u);
  ASSERT_TRUE(S.get(2, Out));
  EXPECT_EQ(Out, 13u);
}

TEST(KvStore, ShardFullReportsFailure) {
  rt::Heap H;
  StoreConfig C;
  C.Shards = 1;
  C.CapacityPerShard = 4;
  Store S(H, C);
  unsigned Inserted = 0;
  for (Word K = 0; K < 100 && Inserted < 4; ++K)
    Inserted += S.insert(K, K + 1);
  EXPECT_EQ(Inserted, 4u);
  // Every further distinct key must fail; existing keys still overwrite.
  bool AnyNew = false;
  for (Word K = 100; K < 120; ++K)
    AnyNew |= S.insert(K, 1);
  EXPECT_FALSE(AnyNew);
  EXPECT_EQ(S.size(), 4u);
}

TEST(KvStore, ProbeDisplacementStaysFindable) {
  // Fill one single-shard table far enough that linear probing displaces
  // keys from their natural slots, then check every key via both planes.
  rt::Heap H;
  StoreConfig C;
  C.Shards = 1;
  C.CapacityPerShard = 64;
  Store S(H, C);
  std::vector<Word> Inserted;
  for (Word K = 0; Inserted.size() < 48; ++K)
    if (S.insert(K, K ^ 0x5a5a))
      Inserted.push_back(K);
  for (Word K : Inserted) {
    Word Out = 0;
    ASSERT_TRUE(S.get(K, Out)) << "key " << K;
    EXPECT_EQ(Out, K ^ 0x5a5a);
    EXPECT_TRUE(S.putFast(K, K + 1)) << "key " << K;
  }
}

TEST(KvStore, ValueObjectsFollowDeaLifecycle) {
  // Under +DEA the insert's value object is born Private and must come out
  // of the committed insert published (the transactional ref store escapes
  // it, §4) — otherwise another thread's GET would spin on a private
  // record forever.
  Config Cfg;
  Cfg.DeaEnabled = true;
  ScopedConfig SC(Cfg);
  rt::Heap H;
  Store S(H, tiny());
  ASSERT_TRUE(S.insert(11, 7));
  rt::Object *V = S.valueObjectFor(11);
  ASSERT_NE(V, nullptr);
  EXPECT_FALSE(isPrivate(V)) << "committed insert left its value private";
  Word Out = 0;
  ASSERT_TRUE(S.get(11, Out));
  EXPECT_EQ(Out, 7u);
}

TEST(KvStore, ValueObjectForMissesAbsentKeys) {
  rt::Heap H;
  Store S(H, tiny());
  EXPECT_EQ(S.valueObjectFor(1), nullptr);
  ASSERT_TRUE(S.insert(1, 5));
  EXPECT_NE(S.valueObjectFor(1), nullptr);
  EXPECT_EQ(S.valueObjectFor(2), nullptr);
}

TEST(KvStore, AbortedInsertAttemptsReuseTheirRecord) {
  // An insert re-executed after an abort must not allocate a second value
  // record: every allocation stays either linked live or parked.
  rt::Heap H;
  Store S(H, tiny());
  FaultConfig FC;
  std::string Err;
  ASSERT_TRUE(FaultInjector::parse("seed=5,txn_commit=0.5", FC, Err)) << Err;
  FaultInjector::arm(FC);
  for (Word K = 0; K < 20; ++K)
    EXPECT_TRUE(S.insert(K, K + 1));
  uint64_t Fired = FaultInjector::firedCount(FaultSite::TxnCommit);
  FaultInjector::disarm();
  EXPECT_GT(Fired, 0u) << "no insert attempt was aborted";
  Store::ReclaimStats RS = S.reclaimStats();
  EXPECT_EQ(RS.Allocated, 20u + RS.PoolSize);
  EXPECT_EQ(RS.PoolSize, RS.Retired - RS.Recycled);
}

TEST(KvStore, AbortedMultiPutAttemptsReuseTheirRecords) {
  // The net front end's PUT batch path: a re-executed batch must reuse
  // each position's record, so no allocation ends up neither linked live
  // nor parked.
  rt::Heap H;
  StoreConfig C;
  C.Shards = 4;
  C.CapacityPerShard = 128;
  Store S(H, C);
  FaultConfig FC;
  std::string Err;
  ASSERT_TRUE(FaultInjector::parse("seed=5,txn_commit=0.5", FC, Err)) << Err;
  FaultInjector::arm(FC);
  // Keys [Base, Base + Count), then Base again: the last position
  // overwrites, in the same transaction, the record the first one linked.
  auto PutBatch = [&](Word Base, size_t Count) {
    std::vector<Word> Keys, Vals;
    for (Word K = Base; K < Base + Count; ++K) {
      Keys.push_back(K);
      Vals.push_back(K + 1);
    }
    Keys.push_back(Base);
    Vals.push_back(Base + 100);
    std::vector<OpStatus> PerKey(Keys.size(), OpStatus::Full);
    ASSERT_EQ(S.multiPut(Keys.data(), Vals.data(), Keys.size(),
                         PerKey.data()),
              OpStatus::Ok);
    for (OpStatus P : PerKey)
      EXPECT_EQ(P, OpStatus::Ok);
  };
  for (Word Base = 0; Base < 32; Base += 8)
    PutBatch(Base, 8);
  PutBatch(32, 80); // Past the 64 records multiPut tracks on the stack.
  uint64_t Fired = FaultInjector::firedCount(FaultSite::TxnCommit);
  FaultInjector::disarm();
  EXPECT_GT(Fired, 0u) << "no multiPut attempt was aborted";
  uint64_t LiveLinked = 0;
  for (Word K = 0; K < 112; ++K) {
    Word V = 0;
    EXPECT_TRUE(S.get(K, V));
    EXPECT_EQ(V, K % 8 || K > 32 ? K + 1 : K + 100);
    LiveLinked += S.valueObjectFor(K) != nullptr;
  }
  EXPECT_EQ(LiveLinked, 112u);
  Store::ReclaimStats RS = S.reclaimStats();
  EXPECT_EQ(RS.Allocated, LiveLinked + RS.PoolSize);
  EXPECT_EQ(RS.PoolSize, RS.Retired - RS.Recycled);
}

TEST(KvStore, ShapeRoundsUpToPowersOfTwo) {
  rt::Heap H;
  StoreConfig C;
  C.Shards = 3;
  C.CapacityPerShard = 9;
  Store S(H, C);
  EXPECT_EQ(S.shards(), 4u);
  EXPECT_EQ(S.capacityPerShard(), 16u);
  for (Word K = 0; K < 50; ++K)
    EXPECT_LT(S.shardOf(K), 4u);
}

} // namespace
