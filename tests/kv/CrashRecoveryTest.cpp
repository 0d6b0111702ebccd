//===- tests/kv/CrashRecoveryTest.cpp - Kill-mode crash/recovery loop -----===//
//
// Part of the SATM project, reproducing Shpeisman et al., PLDI 2007.
//
//===----------------------------------------------------------------------===//
//
// The durability plane's end-to-end crash test (DESIGN.md §12): a child
// process runs sync-mode transfers against a WAL-attached store with
// SATM_FAULTS kill mode armed — any of the rotated fault sites
// (txn_commit, log_append, log_fsync, heap_alloc, recovery_replay) that
// fires calls std::_Exit(37) on the spot, a simulated crash that flushes
// nothing. The parent then recovers the log into a fresh store and checks
// the two guarantees the plane sells:
//
//  - exact conservation: transfers are sum-preserving, so any recovered
//    prefix of the commit order sums to the initial endowment — a torn or
//    half-replayed transaction would break it;
//  - sync acked writes are never lost: every LSN the child acked (written
//    to a side file only after waitDurable returned) must be <= the
//    recovery cut, across every kill site including crashes *during a
//    previous recovery*.
//
// Iterations chain: each child recovers what the previous one left,
// mutates further, and dies somewhere new. This is the seeded loop
// scripts/ci.sh runs under plain and TSan builds.
//
// The file has its own main (no gtest_main): with --crash-child it runs
// the workload child instead of the test suite, so the kill-armed process
// is this same binary re-executed.
//
//===----------------------------------------------------------------------===//

#include "kv/Store.h"
#include "kv/Wal.h"

#include "rt/Heap.h"
#include "stm/Config.h"
#include "support/FaultInjector.h"

#include "gtest/gtest.h"

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <random>
#include <string>
#include <vector>

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace satm;
using namespace satm::kv;
using namespace satm::stm;

namespace {

constexpr Word NumKeys = 64;
constexpr Word PerKey = 1000;
constexpr uint32_t NumShards = 4;

bool fastTests() {
  const char *Env = std::getenv("SATM_FAST_TESTS");
  return Env && Env[0] == '1';
}

void storeConfig(StoreConfig &KC) {
  KC.Shards = NumShards;
  KC.CapacityPerShard = 64;
}

/// The unlogged baseline (mirrors kv_service: prepopulation precedes the
/// Wal, so recovery re-establishes it before replay).
bool prepopulate(Store &S) {
  for (Word K = 0; K < NumKeys; ++K)
    if (!S.insert(K, PerKey))
      return false;
  return true;
}

uint64_t liveSum(const Store &S) {
  uint64_t Sum = 0;
  for (Word K = 0; K < NumKeys; ++K) {
    Word V = 0;
    if (S.get(K, V))
      Sum += V;
  }
  return Sum;
}

std::string ackedFile(const std::string &Dir) { return Dir + "/acked"; }

/// Highest LSN the child ever acked (0 if none). Entries are fixed 8-byte
/// writes appended only after waitDurable returned, so the file cannot
/// tear mid-entry under _Exit.
uint64_t maxAckedLsn(const std::string &Dir) {
  uint64_t Max = 0, L = 0;
  FILE *F = std::fopen(ackedFile(Dir).c_str(), "rb");
  if (!F)
    return 0;
  while (std::fread(&L, sizeof(L), 1, F) == 1)
    Max = std::max(Max, L);
  std::fclose(F);
  return Max;
}

/// The kill-armed workload process. Recovers, verifies, then runs sync-
/// acked transfers until MaxOps or a fault kills it. Exit 0 = clean run,
/// 37 = simulated crash, 1 = invariant violation (the actual failure).
int crashChild(const char *Dir, int MaxOps, uint64_t Seed) {
  Config Cfg;
  Cfg.DeaEnabled = true;
  ScopedConfig SC(Cfg);

  rt::Heap H;
  StoreConfig KC;
  storeConfig(KC);
  Store S(H, KC);
  if (!prepopulate(S))
    return 1;

  Wal::Config WC;
  WC.Dir = Dir;
  WC.FlushIntervalUs = 200; // Short group-commit window: more fsyncs hit.
  Wal W(WC);
  RecoveryStats Rec = W.recover(S); // recovery_replay kills land in here.
  if (Rec.ApplyFailures != 0 || !Rec.ReclaimIdentityOk) {
    std::fprintf(stderr, "crash-child: recovery broken (%" PRIu64
                         " apply failures, identity %d)\n",
                 Rec.ApplyFailures, int(Rec.ReclaimIdentityOk));
    return 1;
  }
  if (liveSum(S) != NumKeys * PerKey) {
    std::fprintf(stderr, "crash-child: conservation broken after recovery\n");
    return 1;
  }

  W.start();
  S.attachWal(&W);
  int AckFd = ::open(ackedFile(Dir).c_str(),
                     O_CREAT | O_WRONLY | O_APPEND, 0644);
  if (AckFd < 0)
    return 1;

  std::mt19937_64 Rng(Seed);
  for (int I = 0; I < MaxOps; ++I) {
    Word A = Rng() % NumKeys;
    Word B = Rng() % NumKeys;
    if (A == B)
      B = (B + 1) % NumKeys;
    const Word Pair[2] = {A, B};
    // Sum-preserving transfer; the guard keeps values off zero so no
    // wrap can collide with the Tombstone sentinel.
    bool Ok = S.readModifyWrite(Pair, 2, [](Word *V, size_t) {
      if (V[1] >= 7) {
        V[0] += 7;
        V[1] -= 7;
      }
    });
    if (!Ok)
      return 1;
    // Sync ack discipline: wait out the fsync, then record the LSN as
    // acked. A crash before the write() loses the ack, never the data.
    // A degraded verdict (sealed log) must NOT ack — the durability
    // promise those acks encode no longer holds.
    uint64_t L = Wal::lastAppendedLsn();
    if (W.waitDurable(L) != DurableWait::Ok)
      break;
    if (::write(AckFd, &L, sizeof(L)) != ssize_t(sizeof(L)))
      return 1;
  }
  ::close(AckFd);
  S.attachWal(nullptr);
  W.stop();
  return 0;
}

class CrashRecoveryTest : public ::testing::Test {
protected:
  void SetUp() override {
    Config Cfg;
    Cfg.DeaEnabled = true;
    SC = std::make_unique<ScopedConfig>(Cfg);
  }
  std::unique_ptr<ScopedConfig> SC;
};

TEST_F(CrashRecoveryTest, SeededKillLoopConservesAndKeepsAckedWrites) {
  const int Iters = fastTests() ? 25 : 100;
  const int MaxOps = 400;
  // Rotated kill sites: commit-side, both log-I/O sides, allocation (an
  // any-point crash), and recovery itself (crash while repairing a crash).
  const char *Sites[] = {
      "txn_commit=0.004",     "log_append=0.01:64", "log_fsync=0.05:64",
      "heap_alloc=0.002",     "recovery_replay=0.03:64",
  };
  constexpr int NumSites = int(sizeof(Sites) / sizeof(Sites[0]));

  std::string Dir = "/tmp/satm-crashrec-" + std::to_string(long(::getpid()));
  std::filesystem::remove_all(Dir);
  int Kills = 0, Cleans = 0;

  for (int I = 0; I < Iters; ++I) {
    // Fresh log every 10 iterations so replay cost stays linear in the
    // loop, not quadratic; conservation is invariant across the reset.
    if (I % 10 == 0)
      std::filesystem::remove_all(Dir);

    char Spec[96];
    std::snprintf(Spec, sizeof(Spec), "seed=%d,%s,kill=1", 100 + I,
                  Sites[I % NumSites]);
    pid_t Pid = ::fork();
    ASSERT_GE(Pid, 0);
    if (Pid == 0) {
      // Arm kill mode in the child only: the SATM_FAULTS bootstrap of the
      // re-executed binary picks it up at startup.
      ::setenv("SATM_FAULTS", Spec, 1);
      char MaxOpsBuf[16], SeedBuf[24];
      std::snprintf(MaxOpsBuf, sizeof(MaxOpsBuf), "%d", MaxOps);
      std::snprintf(SeedBuf, sizeof(SeedBuf), "%d", 7000 + I);
      ::execl("/proc/self/exe", "kv_crash_recovery_test", "--crash-child",
              Dir.c_str(), MaxOpsBuf, SeedBuf, (char *)nullptr);
      ::_exit(127); // exec failed
    }
    int Status = 0;
    ASSERT_EQ(::waitpid(Pid, &Status, 0), Pid);
    ASSERT_TRUE(WIFEXITED(Status))
        << "iter " << I << " (" << Spec << "): child signalled";
    int Code = WEXITSTATUS(Status);
    ASSERT_TRUE(Code == 0 || Code == FaultKillExitCode)
        << "iter " << I << " (" << Spec << "): child exit " << Code;
    Code == 0 ? ++Cleans : ++Kills;

    // Parent-side verification: recover whatever the child left behind.
    // (This also repairs the log in place; the next child chains on it.)
    uint64_t Acked = maxAckedLsn(Dir);
    rt::Heap H;
    StoreConfig KC;
    storeConfig(KC);
    Store S(H, KC);
    ASSERT_TRUE(prepopulate(S));
    Wal::Config WC;
    WC.Dir = Dir;
    Wal W(WC);
    RecoveryStats Rec = W.recover(S);
    EXPECT_EQ(Rec.ApplyFailures, 0u) << "iter " << I << " (" << Spec << ")";
    EXPECT_TRUE(Rec.ReclaimIdentityOk) << "iter " << I;
    EXPECT_EQ(liveSum(S), uint64_t(NumKeys) * PerKey)
        << "iter " << I << " (" << Spec
        << "): recovered prefix broke conservation";
    EXPECT_GE(Rec.CutLsn, Acked)
        << "iter " << I << " (" << Spec << "): a sync-acked write was lost";
  }

  // The rates are tuned so crashes dominate; a loop that never kills is
  // not testing recovery.
  EXPECT_GT(Kills, Iters / 5)
      << "fault sites barely fired (" << Cleans << " clean runs)";
  std::filesystem::remove_all(Dir);
}

} // namespace

int main(int argc, char **argv) {
  if (argc > 4 && std::strcmp(argv[1], "--crash-child") == 0)
    return crashChild(argv[2], std::atoi(argv[3]),
                      std::strtoull(argv[4], nullptr, 10));
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
