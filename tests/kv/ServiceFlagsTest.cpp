//===- tests/kv/ServiceFlagsTest.cpp - kv_service flag validation ---------===//
//
// Part of the SATM project, reproducing Shpeisman et al., PLDI 2007.
//
//===----------------------------------------------------------------------===//
//
// The incoherent-flag rules of bench/ServiceFlags.h: every combination
// kv_service rejects (exit 2 before any setup) and the nearby coherent
// ones it must keep accepting. Each rejected combo would otherwise run
// and emit a misleading bench entry — overload numbers with no offered rate,
// sync-durability entries cut short by smoke budgets, or a --wal-dir or
// checkpointer that silently did nothing. Flags a binary does not take at
// all are usage errors, checked by the bench-smoke CTests in
// bench/CMakeLists.txt.
//
//===----------------------------------------------------------------------===//

#include "ServiceFlags.h"

#include "gtest/gtest.h"

#include <cstring>

using namespace satm;
using namespace satm::bench;

namespace {

ServiceFlags base() { return ServiceFlags{}; }

void expectOk(const ServiceFlags &F, const char *What) {
  const char *Err = validateServiceFlags(F);
  EXPECT_EQ(Err, nullptr) << What << " wrongly rejected: " << Err;
}

void expectRejected(const ServiceFlags &F, const char *Needle,
                    const char *What) {
  const char *Err = validateServiceFlags(F);
  ASSERT_NE(Err, nullptr) << What << " wrongly accepted";
  EXPECT_NE(std::strstr(Err, Needle), nullptr)
      << What << ": diagnostic \"" << Err << "\" does not mention \""
      << Needle << "\"";
}

TEST(ServiceFlags, CoherentCombinationsPass) {
  expectOk(base(), "defaults");

  ServiceFlags F = base();
  F.Qps = 50000;
  expectOk(F, "open loop");

  F = base();
  F.Qps = 50000;
  F.Overload = true;
  expectOk(F, "overload with an offered rate");

  F = base();
  F.Durability = kv::DurabilityMode::Sync;
  expectOk(F, "sync durability on a custom run");

  F = base();
  F.Durability = kv::DurabilityMode::Async;
  F.Smoke = true;
  expectOk(F, "async durability fits the smoke budget");

  F = base();
  F.Durability = kv::DurabilityMode::Async;
  F.WalDirSet = true;
  expectOk(F, "wal dir with a durability mode");
}

TEST(ServiceFlags, OverloadRequiresAnOfferedRate) {
  ServiceFlags F = base();
  F.Overload = true;
  expectRejected(F, "--qps", "overload without qps");
}

TEST(ServiceFlags, SyncDurabilityRejectsSmokeAndSuiteBudgets) {
  ServiceFlags F = base();
  F.Durability = kv::DurabilityMode::Sync;
  F.Smoke = true;
  expectRejected(F, "--durability=sync", "sync + smoke");

  F = base();
  F.Durability = kv::DurabilityMode::Sync;
  F.Suite = true;
  expectRejected(F, "--durability=sync", "sync + suite");
}

TEST(ServiceFlags, WalDirRequiresADurabilityMode) {
  ServiceFlags F = base();
  F.WalDirSet = true;
  expectRejected(F, "--wal-dir", "wal dir with durability off");
}

TEST(ServiceFlags, CheckpointRequiresADurabilityMode) {
  ServiceFlags F = base();
  F.CheckpointSet = true;
  expectRejected(F, "--checkpoint-interval",
                 "checkpoint interval with durability off");

  F.Durability = kv::DurabilityMode::Async;
  expectOk(F, "checkpoint interval over an async log");

  F.Durability = kv::DurabilityMode::Sync;
  expectOk(F, "checkpoint interval over a sync log");
}

} // namespace
