//===- tests/kv/WalRecoveryTest.cpp - Crash-recovery corruption matrix ----===//
//
// Part of the SATM project, reproducing Shpeisman et al., PLDI 2007.
//
//===----------------------------------------------------------------------===//
//
// The corruption matrix for Wal::recover (DESIGN.md §12): a deterministic
// single-threaded workload builds a pristine log, each test damages a copy
// of it (torn tail, bit flip, duplicated record, a cut inside the final
// group, a lost mid-log commit, a lost first commit, empty log) and
// recovery must land on an exact *prefix of the commit order* — never a
// mix-and-match. The golden-state method makes that
// precise: recovering the damaged log must produce bit-identical store
// state to recovering an undamaged copy manually truncated at the damaged
// recovery's cut LSN. Process-kill crashes (real torn tails under fault
// injection) live in CrashRecoveryTest.
//
//===----------------------------------------------------------------------===//

#include "kv/Store.h"
#include "kv/Wal.h"

#include "rt/Heap.h"
#include "stm/Config.h"
#include "stm/Snapshot.h"

#include "gtest/gtest.h"

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include <unistd.h>

using namespace satm;
using namespace satm::kv;
using namespace satm::stm;

namespace {

namespace fs = std::filesystem;

constexpr uint32_t NumShards = 4;
constexpr Word BaseKeys = 64;   // Prepopulated (unlogged) 0..63 -> 1000.
constexpr Word KeyUniverse = 128; // Scan range for state dumps.

std::string scratchDir(const char *Name) {
  std::string Dir = "/tmp/satm-walrec-" + std::to_string(long(::getpid())) +
                    "-" + Name;
  fs::remove_all(Dir);
  return Dir;
}

void makeStore(rt::Heap &H, std::unique_ptr<Store> &S) {
  StoreConfig KC;
  KC.Shards = NumShards;
  KC.CapacityPerShard = 64;
  S = std::make_unique<Store>(H, KC);
}

/// The unlogged baseline every recovery starts from (mirrors kv_service:
/// prepopulation happens before the Wal is attached, so it is not in the
/// log and must be re-established before replay).
void prepopulate(Store &S) {
  for (Word K = 0; K < BaseKeys; ++K)
    ASSERT_TRUE(S.insert(K, 1000));
}

std::map<Word, Word> dumpState(const Store &S) {
  std::map<Word, Word> Out;
  for (Word K = 0; K < KeyUniverse; ++K) {
    Word V = 0;
    if (S.get(K, V))
      Out[K] = V;
  }
  return Out;
}

/// Runs the deterministic logged workload and returns the live end state.
/// Covers every record shape recovery must handle: single-record inserts
/// and overwrites, Erase records, multi-record groups (rmwAdd), and a
/// final 8-record group.
std::map<Word, Word> buildLog(const std::string &Dir) {
  rt::Heap H;
  std::unique_ptr<Store> S;
  makeStore(H, S);
  prepopulate(*S);

  Wal::Config WC;
  WC.Dir = Dir;
  Wal W(WC);
  W.start();
  S->attachWal(&W);

  for (Word K = BaseKeys; K < 96; ++K)
    EXPECT_TRUE(S->insert(K, K * 10));
  for (Word R = 0; R < 8; ++R) {
    Word Keys[2] = {R, 32 + R};
    EXPECT_TRUE(S->rmwAdd(Keys, 2, 3));
  }
  EXPECT_TRUE(S->erase(5));
  EXPECT_TRUE(S->erase(70));
  EXPECT_TRUE(S->put(8, 888));
  Word Fin[8] = {20, 21, 22, 23, 80, 81, 82, 83};
  EXPECT_TRUE(S->rmwAdd(Fin, 8, 1));

  W.waitDurable(Wal::lastAppendedLsn());
  S->attachWal(nullptr);
  W.stop();
  return dumpState(*S);
}

struct Recovered {
  std::map<Word, Word> State;
  RecoveryStats Rec;
};

/// Recovers \p Dir into a fresh prepopulated store. Note recover() also
/// repairs the directory in place (truncates torn/beyond-cut suffixes).
Recovered recoverDir(const std::string &Dir) {
  rt::Heap H;
  std::unique_ptr<Store> S;
  makeStore(H, S);
  prepopulate(*S);
  Wal::Config WC;
  WC.Dir = Dir;
  Wal W(WC);
  Recovered R;
  R.Rec = W.recover(*S);
  R.State = dumpState(*S);
  return R;
}

void copyDir(const std::string &From, const std::string &To) {
  fs::remove_all(To);
  fs::copy(From, To, fs::copy_options::recursive);
}

std::vector<WalRecord> readLog(const std::string &Dir) {
  std::vector<WalRecord> Out;
  std::ifstream In(Wal::logFile(Dir), std::ios::binary);
  WalRecord R;
  while (In.read(reinterpret_cast<char *>(&R), sizeof(R)))
    Out.push_back(R);
  return Out;
}

void writeLog(const std::string &Dir, const std::vector<WalRecord> &Recs) {
  std::ofstream Out(Wal::logFile(Dir), std::ios::binary | std::ios::trunc);
  for (const WalRecord &R : Recs)
    Out.write(reinterpret_cast<const char *>(&R), sizeof(R));
}

/// The manual truncation recovery must be equivalent to: keep only records
/// with Lsn <= Cut.
void truncateToLsn(const std::string &Dir, uint64_t Cut) {
  std::vector<WalRecord> Recs = readLog(Dir);
  while (!Recs.empty() && Recs.back().Lsn > Cut)
    Recs.pop_back();
  writeLog(Dir, Recs);
}

/// Core check: recovering the damaged dir equals recovering a pristine
/// copy manually truncated at the damaged run's cut — an exact prefix of
/// the commit order, nothing reordered, nothing partially applied.
void expectPrefixSemantics(const std::string &Pristine,
                           const Recovered &Damaged, const char *Tag) {
  std::string Ref = scratchDir((std::string("ref-") + Tag).c_str());
  copyDir(Pristine, Ref);
  truncateToLsn(Ref, Damaged.Rec.CutLsn);
  Recovered Golden = recoverDir(Ref);
  EXPECT_EQ(Golden.Rec.TornRecords, 0u) << Tag;
  EXPECT_EQ(Damaged.State, Golden.State)
      << Tag << ": damaged recovery is not a prefix of the commit order";
  EXPECT_EQ(Damaged.Rec.ApplyFailures, 0u) << Tag;
  EXPECT_TRUE(Damaged.Rec.ReclaimIdentityOk) << Tag;
  fs::remove_all(Ref);
}

class WalRecoveryTest : public ::testing::Test {
protected:
  void SetUp() override {
    Config Cfg;
    Cfg.DeaEnabled = true;
    SC = std::make_unique<ScopedConfig>(Cfg);
    Pristine = scratchDir("pristine");
    LiveState = buildLog(Pristine);
    ASSERT_FALSE(LiveState.empty());
  }
  void TearDown() override {
    fs::remove_all(Pristine);
    fs::remove_all(Damaged);
    SC.reset();
  }

  /// Fresh damaged copy of the pristine log.
  const std::string &damagedCopy() {
    Damaged = scratchDir("damaged");
    copyDir(Pristine, Damaged);
    return Damaged;
  }

  std::unique_ptr<ScopedConfig> SC;
  std::string Pristine, Damaged;
  std::map<Word, Word> LiveState;
};

TEST_F(WalRecoveryTest, UndamagedReplayMatchesLiveStateAndIsIdempotent) {
  const std::string &D = damagedCopy(); // Not damaged: the control row.
  Recovered First = recoverDir(D);
  EXPECT_EQ(First.State, LiveState);
  EXPECT_EQ(First.Rec.TornRecords, 0u);
  EXPECT_EQ(First.Rec.ApplyFailures, 0u);
  EXPECT_TRUE(First.Rec.ReclaimIdentityOk);
  EXPECT_GT(First.Rec.TxnsReplayed, 0u);
  EXPECT_EQ(First.Rec.RecordsReplayed, First.Rec.RecordsScanned);

  // Recovery repaired nothing, so running it again is a no-op replay of
  // the same prefix.
  Recovered Second = recoverDir(D);
  EXPECT_EQ(Second.State, First.State);
  EXPECT_EQ(Second.Rec.CutLsn, First.Rec.CutLsn);
  EXPECT_EQ(Second.Rec.RecordsReplayed, First.Rec.RecordsReplayed);
  EXPECT_EQ(Second.Rec.TornRecords, 0u);
}

TEST_F(WalRecoveryTest, TruncatedTailRecordIsNeverReplayed) {
  const std::string &D = damagedCopy();
  // Tear the log mid-record: 13 bytes short of a full tail.
  uint64_t Sz = fs::file_size(Wal::logFile(D));
  ASSERT_GT(Sz, 13u);
  fs::resize_file(Wal::logFile(D), Sz - 13);

  Recovered R = recoverDir(D);
  EXPECT_GE(R.Rec.TornRecords, 1u);
  EXPECT_GE(R.Rec.TruncatedBytes, sizeof(WalRecord) - 13);
  expectPrefixSemantics(Pristine, R, "torn-tail");

  // The repair is complete: a second recovery sees a clean log.
  Recovered Again = recoverDir(D);
  EXPECT_EQ(Again.Rec.TornRecords, 0u);
  EXPECT_EQ(Again.State, R.State);
}

TEST_F(WalRecoveryTest, BitFlippedChecksumCutsTheLogThere) {
  const std::string &D = damagedCopy();
  std::vector<WalRecord> Recs = readLog(D);
  ASSERT_GE(Recs.size(), 3u) << "need a mid-file record to damage";
  size_t Victim = Recs.size() / 2;
  Recs[Victim].Key ^= 1ull << 21; // Checksum now mismatches.
  writeLog(D, Recs);

  Recovered R = recoverDir(D);
  // The flip kills the record and the log's entire suffix behind it.
  EXPECT_GE(R.Rec.TornRecords, 1u);
  EXPECT_LT(R.Rec.CutLsn, Recs.back().Lsn);
  expectPrefixSemantics(Pristine, R, "bit-flip");
}

TEST_F(WalRecoveryTest, DuplicatedTailRecordIsRejectedNotReplayedTwice) {
  const std::string &D = damagedCopy();
  std::vector<WalRecord> Recs = readLog(D);
  ASSERT_FALSE(Recs.empty());
  {
    // A re-sent tail: checksum-valid, but (Lsn, Index) does not advance.
    std::ofstream Out(Wal::logFile(D), std::ios::binary | std::ios::app);
    Out.write(reinterpret_cast<const char *>(&Recs.back()), sizeof(WalRecord));
  }

  Recovered Undamaged = recoverDir(Pristine);
  Recovered R = recoverDir(D);
  EXPECT_GE(R.Rec.TornRecords, 1u);
  // The duplicate is dropped as torn; everything real still replays.
  EXPECT_EQ(R.Rec.CutLsn, Undamaged.Rec.CutLsn);
  EXPECT_EQ(R.State, Undamaged.State);
  EXPECT_EQ(R.State, LiveState);
}

TEST_F(WalRecoveryTest, MissingGroupMemberCutsBeforeTheGroup) {
  const std::string &D = damagedCopy();
  // The workload ends with an 8-key rmwAdd: one LSN, eight records. Cut
  // the log at a record boundary inside that group — the crash landed
  // between the writes of its members — keeping three of them.
  std::vector<WalRecord> Recs = readLog(D);
  ASSERT_GE(Recs.size(), 8u);
  const uint64_t MaxLsn = Recs.back().Lsn;
  ASSERT_EQ(Recs.back().span(), 8u);
  const size_t GroupStart = Recs.size() - 8;
  ASSERT_EQ(Recs[GroupStart].Lsn, MaxLsn);
  ASSERT_EQ(Recs[GroupStart].index(), 0u);
  fs::resize_file(Wal::logFile(D), (GroupStart + 3) * sizeof(WalRecord));

  Recovered R = recoverDir(D);
  // The group is incomplete, so no member may replay, and the surviving
  // members are truncated away. No record is torn: the cut is clean.
  EXPECT_EQ(R.Rec.CutLsn, MaxLsn - 1);
  EXPECT_EQ(R.Rec.TornRecords, 0u);
  EXPECT_EQ(R.Rec.TruncatedBytes, 3 * sizeof(WalRecord));
  expectPrefixSemantics(Pristine, R, "missing-member");
  for (const WalRecord &Rec : readLog(D))
    EXPECT_LT(Rec.Lsn, MaxLsn) << "surviving member not truncated";

  Recovered Again = recoverDir(D);
  EXPECT_EQ(Again.Rec.TornRecords, 0u);
  EXPECT_EQ(Again.State, R.State);
}

TEST_F(WalRecoveryTest, LostMidLogCommitCutsAtTheHole) {
  const std::string &D = damagedCopy();
  // Remove one whole mid-log commit cleanly. Every record left is
  // checksum-valid and (Lsn, Index)-ascending, so only the contiguity
  // check can see that a commit is missing: the later ones must not
  // replay past it.
  std::vector<WalRecord> Recs = readLog(D);
  size_t Victim = Recs.size() / 2;
  while (Victim < Recs.size() && Recs[Victim].span() != 1)
    ++Victim;
  ASSERT_LT(Victim + 1, Recs.size()) << "need a later commit to cut away";
  const uint64_t Lost = Recs[Victim].Lsn;
  Recs.erase(Recs.begin() + long(Victim));
  writeLog(D, Recs);

  Recovered R = recoverDir(D);
  EXPECT_EQ(R.Rec.CutLsn, Lost - 1);
  EXPECT_EQ(R.Rec.TornRecords, 0u);
  EXPECT_EQ(R.Rec.TruncatedBytes,
            (Recs.size() - Victim) * sizeof(WalRecord));
  expectPrefixSemantics(Pristine, R, "lost-mid-commit");
}

TEST_F(WalRecoveryTest, CorruptedFirstCommitCutsToEmptyNotAMidLogSuffix) {
  const std::string &D = damagedCopy();
  // The log's first commit (LSN 2, buildLog's first single-record insert)
  // is the file's first record.
  std::vector<WalRecord> Recs = readLog(D);
  ASSERT_FALSE(Recs.empty());
  ASSERT_EQ(Recs.front().Lsn, 2u) << "the retained prefix must start at LSN 2";
  // Flip a bit in that record: the later commits are intact, but
  // replaying them (LSN 3+) would not be a prefix of the commit order —
  // the cut must land before the lost first commit, i.e. replay nothing.
  Recs.front().Val ^= 1ull << 13;
  writeLog(D, Recs);

  Recovered R = recoverDir(D);
  EXPECT_GE(R.Rec.TornRecords, 1u);
  EXPECT_EQ(R.Rec.RecordsReplayed, 0u);
  EXPECT_EQ(R.Rec.TxnsReplayed, 0u);
  EXPECT_EQ(R.Rec.CutLsn, 0u);
  expectPrefixSemantics(Pristine, R, "first-commit-lost");
  // The repair emptied the log; a second recovery is a clean empty-log
  // pass.
  Recovered Again = recoverDir(D);
  EXPECT_EQ(Again.Rec.RecordsScanned, 0u);
  EXPECT_EQ(Again.Rec.TornRecords, 0u);
  EXPECT_EQ(Again.State, R.State);
}

// Regression: under Config::SnapshotEnabled every writing commit consumes
// a publish ticket — including recover()'s own replay transactions and any
// pre-attach prepopulation. The LSN base must absorb those (it is derived
// from the live ticket counter at start()), or the first post-recovery
// record lands past cut + 1 and the next recovery's hole rule silently
// cuts away the entire fsync-acked second generation.
TEST(WalSnapshotRecoveryTest, RecoverThenLogUnderSnapshotModeStaysContiguous) {
  Config Cfg;
  Cfg.DeaEnabled = true;
  Cfg.SnapshotEnabled = true;
  ScopedConfig SC(Cfg);
  std::string Dir = scratchDir("snapgen");

  // Generation 1: prepopulate (ticket-consuming, unlogged), then log.
  {
    rt::Heap H;
    std::unique_ptr<Store> S;
    makeStore(H, S);
    prepopulate(*S);
    Wal::Config WC;
    WC.Dir = Dir;
    Wal W(WC);
    W.start();
    S->attachWal(&W);
    for (Word K = BaseKeys; K < BaseKeys + 16; ++K)
      EXPECT_TRUE(S->insert(K, K * 10));
    W.waitDurable(Wal::lastAppendedLsn());
    S->attachWal(nullptr);
    W.stop();
    snap::resetTable();
  }
  // Generation 2: recover (replay consumes tickets), keep logging on the
  // same instance, and remember the acked high-water mark.
  std::map<Word, Word> Live;
  uint64_t Gen2Last = 0;
  uint64_t Gen1Cut = 0;
  {
    rt::Heap H;
    std::unique_ptr<Store> S;
    makeStore(H, S);
    prepopulate(*S);
    Wal::Config WC;
    WC.Dir = Dir;
    Wal W(WC);
    RecoveryStats Rec = W.recover(*S);
    ASSERT_EQ(Rec.ApplyFailures, 0u);
    ASSERT_GT(Rec.TxnsReplayed, 0u);
    Gen1Cut = Rec.CutLsn;
    W.start();
    S->attachWal(&W);
    for (Word K = BaseKeys + 16; K < BaseKeys + 32; ++K)
      EXPECT_TRUE(S->insert(K, K * 10));
    EXPECT_TRUE(S->erase(3));
    Word Keys[2] = {1, 2};
    EXPECT_TRUE(S->rmwAdd(Keys, 2, 5));
    Gen2Last = Wal::lastAppendedLsn();
    W.waitDurable(Gen2Last);
    S->attachWal(nullptr);
    W.stop();
    Live = dumpState(*S);
    snap::resetTable();
  }
  // The second generation continued at exactly cut + 1: 18 commits (16
  // inserts, one erase, one rmwAdd — whose two records share one LSN).
  EXPECT_EQ(Gen2Last, Gen1Cut + 18);
  // Generation 3: a final recovery replays *everything* — an LSN gap
  // between the generations would have cut generation 2 away entirely.
  Recovered R = recoverDir(Dir);
  EXPECT_EQ(R.Rec.TornRecords, 0u);
  EXPECT_EQ(R.Rec.CutLsn, Gen2Last);
  EXPECT_EQ(R.Rec.RecordsReplayed, R.Rec.RecordsScanned);
  EXPECT_EQ(R.Rec.ApplyFailures, 0u);
  EXPECT_EQ(R.State, Live);
  snap::resetTable();
  fs::remove_all(Dir);
}

TEST_F(WalRecoveryTest, EmptyLogReplaysNothing) {
  std::string Empty = scratchDir("empty");
  fs::create_directories(Empty);
  Recovered R = recoverDir(Empty);
  EXPECT_EQ(R.Rec.RecordsScanned, 0u);
  EXPECT_EQ(R.Rec.RecordsReplayed, 0u);
  EXPECT_EQ(R.Rec.TxnsReplayed, 0u);
  EXPECT_EQ(R.Rec.CutLsn, 0u);
  EXPECT_TRUE(R.Rec.ReclaimIdentityOk);
  // State is exactly the unlogged baseline.
  ASSERT_EQ(R.State.size(), size_t(BaseKeys));
  for (const auto &[K, V] : R.State) {
    EXPECT_LT(K, BaseKeys);
    EXPECT_EQ(V, 1000u);
  }
  fs::remove_all(Empty);
}

} // namespace
