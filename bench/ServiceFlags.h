//===- bench/ServiceFlags.h - kv_service flag coherence checks -*- C++ -*-===//
//
// Part of the SATM project, reproducing Shpeisman et al., PLDI 2007.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Flag-combination validation for the service harnesses, factored out of
/// main() so the incoherent-combo rules are unit-testable
/// (tests/kv/ServiceFlagsTest.cpp). Every rejected combination is one that
/// would otherwise run and emit a misleading bench entry — the harness
/// fails fast instead. kv_service checks all four rules; kv_server sets
/// only the durability fields (bench/ServiceStack.h stackFlags), so only
/// the two durability rules can fire there.
///
//===----------------------------------------------------------------------===//

#ifndef SATM_BENCH_SERVICEFLAGS_H
#define SATM_BENCH_SERVICEFLAGS_H

#include "kv/Wal.h"

namespace satm {
namespace bench {

/// The parsed flags that interact.
struct ServiceFlags {
  double Qps = 0;        ///< --qps (0 = closed loop)
  bool Overload = false; ///< an --overload policy was given
  kv::DurabilityMode Durability = kv::DurabilityMode::Off;
  bool Smoke = false;         ///< --smoke (tiny CI/TSan time budgets)
  bool Suite = false;         ///< --suite
  bool WalDirSet = false;     ///< --wal-dir was given
  bool CheckpointSet = false; ///< --checkpoint-interval was given
};

/// Returns null when the combination is coherent, else a static
/// diagnostic (no allocation — callable from tests and from main before
/// any setup).
inline const char *validateServiceFlags(const ServiceFlags &F) {
  if (F.CheckpointSet && F.Durability == kv::DurabilityMode::Off)
    return "--checkpoint-interval compacts the write-ahead log, which "
           "--durability=off never writes: a checkpointer with no WAL "
           "records nothing and truncates nothing (set a durability mode)";
  if (F.WalDirSet && F.Durability == kv::DurabilityMode::Off)
    return "--wal-dir without --durability=async|sync would be silently "
           "ignored (set a durability mode)";
  if (F.Overload && !(F.Qps > 0))
    return "--overload is an open-loop experiment: without --qps there is "
           "no offered rate to exceed capacity (add --qps, or shed at the "
           "socket with kv_server)";
  if (F.Durability == kv::DurabilityMode::Sync && (F.Smoke || F.Suite))
    return "--durability=sync waits out an fsync per mutation, which the "
           "--smoke/--suite time budgets do not cover; the full suite runs "
           "its own sized sync entries (use a single custom run)";
  return nullptr;
}

} // namespace bench
} // namespace satm

#endif // SATM_BENCH_SERVICEFLAGS_H
