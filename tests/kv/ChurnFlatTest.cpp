//===- tests/kv/ChurnFlatTest.cpp - Memory flatness under churn -----------===//
//
// Part of the SATM project, reproducing Shpeisman et al., PLDI 2007.
//
//===----------------------------------------------------------------------===//
//
// The PR's two unbounded-memory holes, closed and held closed:
//
//  - Tombstoned KV value records: erase parks the unlinked record in its
//    shard's epoch-gated retire pool and insert recycles it once the
//    quiescence horizon passes, so sustained erase/insert churn plateaus
//    fresh allocations while the recycle counter climbs without bound.
//  - Event-ring registry entries: a thread's trace ring is recycled at
//    thread exit, so ring count tracks peak concurrency — not the number
//    of threads that ever lived. Quiescence slots behave the same way
//    (their regression lives in stm/ThreadChurnTest; re-checked here
//    against the KV store's transactions).
//  - Snapshot version records: publication-time pruning keeps the global
//    node count bounded under sustained overwrites when no snapshot pin
//    holds history.
//
// All three are asserted through the introspection counters this PR wired
// up: Store::reclaimStats(), traceRegistryStats(), snap::liveNodes().
// Runs in CI's TSan lane via the `stm` label; SATM_FAST_TESTS=1 shrinks
// the churn volumes.
//
//===----------------------------------------------------------------------===//

#include "kv/Store.h"

#include "stm/Config.h"
#include "stm/Quiesce.h"
#include "stm/Snapshot.h"
#include "stm/Stats.h"

#include "gtest/gtest.h"

#include <cstdlib>
#include <deque>
#include <thread>
#include <vector>

using namespace satm;
using namespace satm::kv;
using namespace satm::stm;

namespace {

bool fastTests() {
  const char *Env = std::getenv("SATM_FAST_TESTS");
  return Env && Env[0] == '1';
}

TEST(ChurnFlat, TombstoneChurnPlateausValueRecords) {
  Config Cfg;
  Cfg.DeaEnabled = true;
  ScopedConfig SC(Cfg);

  constexpr Word NumKeys = 32;
  const unsigned Rounds = fastTests() ? 50 : 200;

  rt::Heap H;
  StoreConfig KC;
  KC.Shards = 2;
  KC.CapacityPerShard = 64;
  Store S(H, KC);
  for (Word K = 0; K < NumKeys; ++K)
    ASSERT_TRUE(S.insert(K, K + 1));

  for (unsigned R = 0; R < Rounds; ++R) {
    for (Word K = 0; K < NumKeys; ++K)
      ASSERT_TRUE(S.erase(K));
    // An epoch tick: once the epoch passes the parks' retirement horizon,
    // every record parked this round is ripe. (Without the tick the pool
    // self-ripens one epoch per round — reclamation still caps
    // allocations at ~1 per round instead of NumKeys.)
    Quiescence::advanceEpoch();
    for (Word K = 0; K < NumKeys; ++K)
      ASSERT_TRUE(S.insert(K, R * NumKeys + K + 1));
  }

  Store::ReclaimStats RS = S.reclaimStats();
  // Retire/recycle are monotone churn odometers; allocation is the flat
  // line. Without reclamation every re-insert of an erased key would
  // allocate: Rounds * NumKeys fresh records over the run.
  EXPECT_EQ(RS.PoolSize, RS.Retired - RS.Recycled)
      << "every retired record is either recycled or still parked";
  EXPECT_EQ(RS.Allocated, uint64_t(NumKeys) + RS.PoolSize)
      << "every allocation is either linked live or parked";
  EXPECT_EQ(RS.Retired, uint64_t(Rounds) * NumKeys)
      << "one park per erase";
  EXPECT_GT(RS.Recycled, 0u);
  EXPECT_LE(RS.Allocated, 2 * NumKeys)
      << "allocations must plateau at the working set";
  EXPECT_LE(RS.PoolSize, NumKeys)
      << "parked records are bounded by the working set";

  // The store still answers correctly after all that churn.
  for (Word K = 0; K < NumKeys; ++K) {
    Word V = 0;
    ASSERT_TRUE(S.get(K, V));
    EXPECT_EQ(V, uint64_t(Rounds - 1) * NumKeys + K + 1);
  }
}

TEST(ChurnFlat, TombstoneSaturatedShardRecyclesSlots) {
  Config Cfg;
  Cfg.DeaEnabled = true;
  ScopedConfig SC(Cfg);

  // One shard, eight slots: small enough that a handful of erases puts a
  // tombstone on *every* probe sequence.
  rt::Heap H;
  StoreConfig KC;
  KC.Shards = 1;
  KC.CapacityPerShard = 8;
  Store S(H, KC);
  constexpr Word Cap = 8;

  Word Next = 0;
  std::deque<Word> Live;
  for (; Next < Cap; ++Next) {
    ASSERT_TRUE(S.insert(Next, Next + 100));
    Live.push_back(Next);
  }
  // Genuinely full (all slots live): Full is the right answer.
  EXPECT_FALSE(S.insert(Next, 1));

  const unsigned Rounds = fastTests() ? 64 : 256;
  for (unsigned R = 0; R < Rounds; ++R) {
    Word Victim = Live.front();
    Live.pop_front();
    ASSERT_TRUE(S.erase(Victim));
    // Ripen the parked record past both horizons (popRecycled requires
    // the epoch strictly beyond the retirement stamp).
    Quiescence::advanceEpoch();
    Quiescence::advanceEpoch();
    // The regression: the probe wraps the whole table without an empty
    // slot, so insert of a never-seen key used to report Full forever
    // even though a ripened tombstoned slot was available. It must
    // recycle that slot (and its parked record) instead.
    ASSERT_TRUE(S.insert(Next, Next + 100))
        << "round " << R << ": tombstone-saturated shard did not recycle";
    Live.push_back(Next);
    ++Next;
  }

  // The recycling is exact: every round reused the round's own park, so
  // the working set never grew past the table.
  Store::ReclaimStats RS = S.reclaimStats();
  EXPECT_EQ(RS.Retired, uint64_t(Rounds));
  EXPECT_EQ(RS.Recycled, uint64_t(Rounds));
  EXPECT_EQ(RS.PoolSize, 0u);
  EXPECT_EQ(RS.Allocated, uint64_t(Cap));

  // And the index still answers correctly through all the slot reuse.
  for (Word K : Live) {
    Word V = 0;
    ASSERT_TRUE(S.get(K, V));
    EXPECT_EQ(V, K + 100);
  }
  Word V = 0;
  EXPECT_FALSE(S.get(0, V)) << "round 0's victim stays erased";
}

TEST(ChurnFlat, ThreadChurnKeepsRingAndSlotRegistriesBounded) {
  Config Cfg;
  Cfg.DeaEnabled = true;
  ScopedConfig SC(Cfg);

  const unsigned Batch = 8;
  const unsigned Total = fastTests() ? 120 : 600;

  rt::Heap H;
  StoreConfig KC;
  KC.Shards = 2;
  KC.CapacityPerShard = 64;
  Store S(H, KC);

  const unsigned SlotsBefore = Quiescence::liveSlots();
  setTraceEnabled(true);
  traceReset();

  for (unsigned Spawned = 0; Spawned < Total;) {
    std::vector<std::thread> Pool;
    for (unsigned T = 0; T < Batch && Spawned < Total; ++T, ++Spawned)
      Pool.emplace_back([&S, Spawned] {
        // Enough STM traffic to register a quiescence slot and bind a
        // trace ring: insert, read, erase, re-insert.
        Word K = Spawned % 16;
        (void)S.put(K, Spawned + 1);
        Word V = 0;
        (void)S.get(K, V);
        (void)S.erase(K);
        (void)S.insert(K, Spawned + 2);
      });
    for (std::thread &T : Pool)
      T.join();
  }
  setTraceEnabled(false);

  // Slots and rings are recycled at thread exit: occupancy is restored and
  // the registry footprint tracks peak concurrency, not total churn.
  EXPECT_EQ(Quiescence::liveSlots(), SlotsBefore);
  TraceRegistryStats TR = traceRegistryStats();
  EXPECT_LE(TR.LiveRings + TR.FreeRings, uint64_t(SlotsBefore) + Batch + 4)
      << "ring count must be bounded by peak concurrency, saw "
      << TR.LiveRings << " live + " << TR.FreeRings << " free after "
      << Total << " exited threads";
  EXPECT_GT(TR.RetiredWritten, 0u)
      << "exited threads' events drain into the retired buffer";
}

TEST(ChurnFlat, SnapshotVersionRecordsStayBoundedUnderOverwrites) {
  Config Cfg;
  Cfg.DeaEnabled = true;
  Cfg.SnapshotEnabled = true; // Committing writers publish version records.
  ScopedConfig SC(Cfg);

  constexpr Word NumKeys = 32;
  const unsigned Rounds = fastTests() ? 200 : 1000;

  rt::Heap H;
  StoreConfig KC;
  KC.Shards = 2;
  KC.CapacityPerShard = 64;
  Store S(H, KC);
  for (Word K = 0; K < NumKeys; ++K)
    ASSERT_TRUE(S.insert(K, 1));

  for (unsigned R = 0; R < Rounds; ++R)
    for (Word K = 0; K < NumKeys; ++K)
      ASSERT_TRUE(S.insert(K, R + 2)); // Transactional overwrite publishes.

  // No pin holds history, so publication-time pruning must have kept pace:
  // the live node count is a small multiple of the working set, nowhere
  // near the Rounds * NumKeys commits that published.
  EXPECT_LE(snap::liveNodes(), size_t(8) * NumKeys)
      << "version chains must prune under overwrite churn";
}

} // namespace
