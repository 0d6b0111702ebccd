//===- tests/kv/WalTest.cpp - Durability plane unit tests -----------------===//
//
// Part of the SATM project, reproducing Shpeisman et al., PLDI 2007.
//
//===----------------------------------------------------------------------===//
//
// Unit coverage of the kv::Wal building blocks (DESIGN.md §12): the
// on-disk record format and its checksum, the mode spellings the bench
// harness and schema share, the append → group-commit drain → fsync
// pipeline and its telemetry, the one-file layout and its order, log
// rotation racing live appends, the refusal of an old per-shard log
// directory, the sync-ack waitDurable contract, and the store-side gating
// that routes every write through the logged transactional path while a
// Wal is attached. Crash and corruption semantics live in
// WalRecoveryTest / CrashRecoveryTest.
//
//===----------------------------------------------------------------------===//

#include "kv/Checkpoint.h"
#include "kv/Store.h"
#include "kv/Wal.h"

#include "stm/Config.h"
#include "stm/Snapshot.h"

#include "gtest/gtest.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

using namespace satm;
using namespace satm::kv;
using namespace satm::stm;

namespace {

/// Fresh scratch directory per test, wiped on construction.
std::string scratchDir(const char *Name) {
  std::string Dir = "/tmp/satm-waltest-" + std::to_string(long(::getpid())) +
                    "-" + Name;
  std::filesystem::remove_all(Dir);
  return Dir;
}

TEST(Wal, DurabilityModeSpellingsRoundTrip) {
  EXPECT_STREQ(durabilityModeName(DurabilityMode::Off), "off");
  EXPECT_STREQ(durabilityModeName(DurabilityMode::Async), "async");
  EXPECT_STREQ(durabilityModeName(DurabilityMode::Sync), "sync");
  for (DurabilityMode M :
       {DurabilityMode::Off, DurabilityMode::Async, DurabilityMode::Sync}) {
    DurabilityMode Out = DurabilityMode::Off;
    ASSERT_TRUE(parseDurabilityMode(durabilityModeName(M), Out));
    EXPECT_EQ(Out, M);
  }
  DurabilityMode Out;
  EXPECT_FALSE(parseDurabilityMode("on", Out));
  EXPECT_FALSE(parseDurabilityMode("", Out));
  EXPECT_FALSE(parseDurabilityMode(nullptr, Out));
}

TEST(Wal, RecordMetaPacksOpIndexSpan) {
  WalRecord R{};
  R.Meta = WalRecord::packMeta(WalOp::Erase, 0x123456u, 0xdeadbeefu);
  EXPECT_EQ(R.op(), WalOp::Erase);
  EXPECT_EQ(R.index(), 0x123456u);
  EXPECT_EQ(R.span(), 0xdeadbeefu);
  static_assert(sizeof(WalRecord) == 40, "on-disk format is five words");
}

TEST(Wal, ChecksumRejectsZeroFillAndBitFlips) {
  // A zero-filled record is what a torn tail on a sparse file looks like:
  // it must never validate, which is why the checksum is seeded.
  WalRecord Zero{};
  EXPECT_NE(Zero.checksum(), 0u);

  WalRecord R{};
  R.Lsn = 41;
  R.Meta = WalRecord::packMeta(WalOp::Put, 0, 1);
  R.Key = 7;
  R.Val = 7000;
  R.Check = R.checksum();
  // Any single covered word changing must be detected.
  for (uint64_t *W : {&R.Lsn, &R.Meta, &R.Key, &R.Val}) {
    *W ^= 1ull << 17;
    EXPECT_NE(R.Check, R.checksum()) << "bit flip went undetected";
    *W ^= 1ull << 17;
  }
  EXPECT_EQ(R.Check, R.checksum());
}

TEST(Wal, AppendDrainFsyncAccountsEveryRecord) {
  Config Cfg;
  Cfg.DeaEnabled = true;
  ScopedConfig SC(Cfg);

  rt::Heap H;
  StoreConfig KC;
  KC.Shards = 4;
  KC.CapacityPerShard = 64;
  Store S(H, KC);

  Wal::Config WC;
  WC.Dir = scratchDir("drain");
  Wal W(WC);
  W.start();
  S.attachWal(&W);

  constexpr Word NumKeys = 48;
  for (Word K = 0; K < NumKeys; ++K)
    ASSERT_TRUE(S.insert(K, K + 100));
  ASSERT_TRUE(S.erase(3));
  Word Keys[2] = {10, 11};
  ASSERT_TRUE(S.rmwAdd(Keys, 2, 5)); // One txn, two redo records.

  // Sync-ack contract: after waitDurable(lastAppendedLsn()) every record
  // this thread ever published is on disk.
  const uint64_t Last = Wal::lastAppendedLsn();
  ASSERT_GT(Last, 0u);
  W.waitDurable(Last);
  EXPECT_GE(W.durableLsn(), Last);

  WalStats St = W.stats();
  EXPECT_EQ(St.RecordsAppended, NumKeys + 1 + 2);
  EXPECT_EQ(St.RecordsWritten, St.RecordsAppended)
      << "a durable last LSN means no record is still parked in a ring";
  EXPECT_EQ(St.BytesWritten, St.RecordsWritten * sizeof(WalRecord));
  EXPECT_GT(St.FsyncBatches, 0u);

  S.attachWal(nullptr);
  W.stop();

  // The bytes really are in the log file, 40-byte aligned.
  EXPECT_EQ(std::filesystem::file_size(Wal::logFile(WC.Dir)), St.BytesWritten);
  std::filesystem::remove_all(WC.Dir);
}

std::vector<WalRecord> readLog(const std::string &Path) {
  std::vector<WalRecord> Out;
  std::ifstream In(Path, std::ios::binary);
  WalRecord R;
  while (In.read(reinterpret_cast<char *>(&R), sizeof(R)))
    Out.push_back(R);
  return Out;
}

TEST(Wal, EveryShardWritesIntoOneOrderedLogFile) {
  Config Cfg;
  Cfg.DeaEnabled = true;
  ScopedConfig SC(Cfg);

  rt::Heap H;
  StoreConfig KC;
  KC.Shards = 16;
  KC.CapacityPerShard = 64;
  Store S(H, KC);

  Wal::Config WC;
  WC.Dir = scratchDir("onefile");
  Wal W(WC);
  W.start();
  S.attachWal(&W);

  // Insert until every shard holds a key, then log multi-shard groups.
  std::vector<bool> Hit(S.shards(), false);
  uint32_t Hits = 0;
  Word K = 1;
  for (; Hits < S.shards(); ++K) {
    ASSERT_TRUE(S.insert(K, K));
    if (!Hit[S.shardOf(K)]) {
      Hit[S.shardOf(K)] = true;
      ++Hits;
    }
  }
  for (Word R = 1; R < 9; ++R) {
    Word Keys[4] = {R, R + 8, R + 16, R + 24};
    ASSERT_TRUE(S.rmwAdd(Keys, 4, 1));
  }
  W.waitDurable(Wal::lastAppendedLsn());
  S.attachWal(nullptr);
  W.stop();

  size_t Files = 0;
  for (const auto &E : std::filesystem::directory_iterator(WC.Dir)) {
    ++Files;
    EXPECT_EQ(E.path().string(), Wal::logFile(WC.Dir));
  }
  EXPECT_EQ(Files, 1u) << "one log file whatever the shard count";
  WalStats St = W.stats();
  EXPECT_EQ(std::filesystem::file_size(Wal::logFile(WC.Dir)), St.BytesWritten);

  std::vector<WalRecord> Recs = readLog(Wal::logFile(WC.Dir));
  ASSERT_EQ(Recs.size(), St.RecordsWritten);
  ASSERT_EQ(Recs.size(), size_t(K - 1) + 8 * 4);
  for (size_t I = 0; I < Recs.size(); ++I) {
    EXPECT_EQ(Recs[I].Check, Recs[I].checksum()) << I;
    if (I == 0)
      continue;
    const WalRecord &P = Recs[I - 1], &R = Recs[I];
    EXPECT_TRUE(P.Lsn < R.Lsn || (P.Lsn == R.Lsn && P.index() < R.index()))
        << "record " << I << " does not advance (Lsn, Index)";
  }
  std::filesystem::remove_all(WC.Dir);
}

TEST(Wal, TruncateBelowRacingAnAppenderKeepsEveryLaterRecord) {
  Config Cfg;
  Cfg.DeaEnabled = true;
  Cfg.SnapshotEnabled = true; // The checkpointer's scan pins an epoch.
  ScopedConfig SC(Cfg);
  constexpr Word NumKeys = 256;
  const int Rounds = std::getenv("SATM_FAST_TESTS") ? 20 : 60;
  StoreConfig KC;
  KC.Shards = 4;
  KC.CapacityPerShard = 256;
  auto Dump = [](const Store &S) {
    std::map<Word, Word> Out;
    for (Word Key = 0; Key < NumKeys; ++Key) {
      Word V = 0;
      if (S.get(Key, V))
        Out[Key] = V;
    }
    return Out;
  };

  std::map<Word, Word> Live;
  uint64_t LastLsn = 0;
  Wal::Config WC;
  WC.Dir = scratchDir("rotate");
  WC.FlushIntervalUs = 100;
  {
    rt::Heap H;
    Store S(H, KC);
    Wal W(WC);
    W.start();
    S.attachWal(&W);
    Checkpointer CP(S, W, Checkpointer::Config{}); // Explicit runOnce only.

    // One thread overwrites keys round-robin while this one checkpoints:
    // from the second checkpoint on, each rotates the log below the
    // previous barrier (truncateBelow) while appends keep landing.
    std::atomic<bool> Done{false};
    std::thread Appender([&] {
      for (Word I = 0; !Done.load(std::memory_order_relaxed); ++I)
        ASSERT_TRUE(S.put(I % NumKeys, I + 1));
      LastLsn = Wal::lastAppendedLsn();
    });
    for (int R = 0; R < Rounds; ++R) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      ASSERT_TRUE(CP.runOnce());
    }
    Done.store(true);
    Appender.join();
    W.waitDurable(LastLsn);
    S.attachWal(nullptr);
    W.stop();
    EXPECT_GT(CP.stats().WalTruncatedBytes, 0u) << "no rotation happened";
    EXPECT_FALSE(W.stats().Degraded);
    Live = Dump(S);
    snap::resetTable();
  }
  // Recovery demands every LSN from the newest barrier + 1 to the last
  // append: a record lost between the bulk copy and the locked tail copy
  // would cut the replay short of LastLsn or leave a key stale.
  rt::Heap H;
  Store S(H, KC);
  Wal W(WC);
  RecoveryStats Rec = W.recover(S);
  EXPECT_EQ(Rec.TornRecords, 0u);
  EXPECT_EQ(Rec.ApplyFailures, 0u);
  EXPECT_EQ(Rec.CutLsn, LastLsn);
  EXPECT_EQ(Dump(S), Live);
  snap::resetTable();
  std::filesystem::remove_all(WC.Dir);
}

TEST(Wal, RecoverRefusesAnOldPerShardLogDirectory) {
  Config Cfg;
  Cfg.DeaEnabled = true;
  ScopedConfig SC(Cfg);
  rt::Heap H;
  StoreConfig KC;
  KC.Shards = 2;
  KC.CapacityPerShard = 32;
  Store S(H, KC);

  Wal::Config WC;
  WC.Dir = scratchDir("oldlayout");
  std::filesystem::create_directories(WC.Dir);
  std::ofstream(WC.Dir + "/shard-0000.wal").put('x');
  Wal W(WC);
  EXPECT_THROW(W.recover(S), WalLayoutError);
  std::filesystem::remove_all(WC.Dir);
}

TEST(Wal, AttachedStoreRefusesRawFastPaths) {
  Config Cfg;
  Cfg.DeaEnabled = true;
  ScopedConfig SC(Cfg);

  rt::Heap H;
  StoreConfig KC;
  KC.Shards = 2;
  KC.CapacityPerShard = 32;
  Store S(H, KC);
  ASSERT_TRUE(S.insert(1, 10));

  // Detached: single-key overwrite takes the raw nt fast path.
  ASSERT_TRUE(S.putFast(1, 11));

  Wal::Config WC;
  WC.Dir = scratchDir("gate");
  Wal W(WC);
  W.start();
  S.attachWal(&W);

  // Attached: the raw path refuses — an unlogged overwrite would be
  // silently undone by recovery. put() still works via the logged
  // transactional insert.
  EXPECT_FALSE(S.putFast(1, 12));
  EXPECT_TRUE(S.put(1, 12));
  Word V = 0;
  ASSERT_TRUE(S.get(1, V));
  EXPECT_EQ(V, 12u);
  EXPECT_GE(W.stats().RecordsAppended, 1u);

  S.attachWal(nullptr);
  W.stop();
  ASSERT_TRUE(S.putFast(1, 13)) << "detach restores the fast path";
  std::filesystem::remove_all(WC.Dir);
}

} // namespace
