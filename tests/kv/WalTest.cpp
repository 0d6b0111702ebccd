//===- tests/kv/WalTest.cpp - Durability plane unit tests -----------------===//
//
// Part of the SATM project, reproducing Shpeisman et al., PLDI 2007.
//
//===----------------------------------------------------------------------===//
//
// Unit coverage of the kv::Wal building blocks (DESIGN.md §12): the
// on-disk record format and its checksum, the mode spellings the bench
// harness and schema share, the append → group-commit drain → fsync
// pipeline and its telemetry, the sync-ack waitDurable contract, and the
// store-side gating that routes every write through the logged
// transactional path while a Wal is attached. Crash and corruption
// semantics live in WalRecoveryTest / CrashRecoveryTest.
//
//===----------------------------------------------------------------------===//

#include "kv/Store.h"
#include "kv/Wal.h"

#include "stm/Config.h"

#include "gtest/gtest.h"

#include <cstdint>
#include <filesystem>
#include <string>

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
  WC.Shards = S.shards();
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

  // The bytes really are in the shard files, 40-byte aligned.
  uint64_t OnDisk = 0;
  for (uint32_t Sd = 0; Sd < WC.Shards; ++Sd) {
    std::error_code Ec;
    uint64_t Sz = std::filesystem::file_size(W.shardFile(Sd), Ec);
    if (!Ec)
      OnDisk += Sz;
  }
  EXPECT_EQ(OnDisk, St.BytesWritten);
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
  WC.Shards = S.shards();
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
