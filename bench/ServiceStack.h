//===- bench/ServiceStack.h - Store + durability setup for kv_* ---*- C++ -*-===//
//
// Part of the SATM project, reproducing Shpeisman et al., PLDI 2007.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What bench/kv_service (in-process workers) and bench/kv_server (the
/// epoll front end) share: the flags that shape the store, its overload
/// budget and its durability plane, and the one way both build, start and
/// tear down that stack. Each binary keeps only its own front end.
///
//===----------------------------------------------------------------------===//

#ifndef SATM_BENCH_SERVICESTACK_H
#define SATM_BENCH_SERVICESTACK_H

#include "ServiceFlags.h"

#include "kv/Checkpoint.h"
#include "kv/Store.h"
#include "kv/Wal.h"
#include "stm/Config.h"
#include "stm/Snapshot.h"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <optional>
#include <string>

#include <unistd.h>

namespace satm {
namespace bench {

/// What to do when offered load exceeds capacity.
enum class OverloadPolicy {
  None,  ///< No deadline semantics.
  Queue, ///< Execute everything; queueing delay goes to the tail.
  Shed,  ///< Drop already-late requests; budget the txn ops.
};

/// The flags both service binaries take (parseStackFlag).
struct StackConfig {
  uint64_t Keys = 1 << 16;
  uint32_t Shards = 64;
  /// Overload control (the v4 degradation experiment).
  OverloadPolicy Policy = OverloadPolicy::None;
  uint64_t DeadlineUs = 0;  ///< Per-request deadline (0 = none).
  uint32_t RetryBudget = 0; ///< Txn attempts per op under Shed (0 = ∞).
  /// Contention-manager knobs forwarded to stm::Config.
  uint32_t IrrevocableAfterAborts = 0;
  bool Karma = false;
  /// Durability plane (DESIGN.md §12): attach the redo log, one file and
  /// one fsync per group-commit cycle whatever Shards is; under Sync, ack
  /// mutations only after their group-commit fsync.
  kv::DurabilityMode Dur = kv::DurabilityMode::Off;
  std::string WalDir; ///< Log directory; empty = per-pid /tmp scratch.
  /// Checkpoint + WAL-compaction plane (DESIGN.md §14): snapshot the
  /// store every this-many appended redo records, truncate the log below
  /// the previous checkpoint's barrier. 0 = no checkpointer.
  uint64_t CheckpointInterval = 0;
};

/// Parses \p A if it is a StackConfig flag. \returns 1 if consumed, 0 if
/// \p A is some other flag, -1 after printing a diagnostic for a bad value.
inline int parseStackFlag(const char *Prog, const char *A, StackConfig &C) {
  auto Val = [&](const char *Prefix) -> const char * {
    size_t N = std::strlen(Prefix);
    return std::strncmp(A, Prefix, N) ? nullptr : A + N;
  };
  const char *V;
  if ((V = Val("--keys=")))
    C.Keys = uint64_t(std::atoll(V));
  else if ((V = Val("--shards=")))
    C.Shards = uint32_t(std::atoi(V));
  else if ((V = Val("--overload="))) {
    if (!std::strcmp(V, "shed"))
      C.Policy = OverloadPolicy::Shed;
    else if (!std::strcmp(V, "queue"))
      C.Policy = OverloadPolicy::Queue;
    else {
      std::fprintf(stderr, "%s: --overload must be shed or queue\n", Prog);
      return -1;
    }
  } else if ((V = Val("--deadline-us=")))
    C.DeadlineUs = uint64_t(std::atoll(V));
  else if ((V = Val("--retry-budget=")))
    C.RetryBudget = uint32_t(std::atoi(V));
  else if ((V = Val("--irrevocable-after=")))
    C.IrrevocableAfterAborts = uint32_t(std::atoi(V));
  else if (!std::strcmp(A, "--karma"))
    C.Karma = true;
  else if ((V = Val("--durability="))) {
    if (!kv::parseDurabilityMode(V, C.Dur)) {
      std::fprintf(stderr, "%s: --durability must be off, async, or sync\n",
                   Prog);
      return -1;
    }
  } else if ((V = Val("--wal-dir=")))
    C.WalDir = V;
  else if ((V = Val("--checkpoint-interval=")))
    C.CheckpointInterval = uint64_t(std::atoll(V));
  else
    return 0;
  return 1;
}

/// Usage text for parseStackFlag's flags.
inline constexpr const char *StackFlagsUsage =
    "store flags (kv_service and kv_server):\n"
    "  [--keys=N] [--shards=N] [--overload=shed|queue] [--deadline-us=N]\n"
    "  [--retry-budget=N] [--irrevocable-after=N] [--karma]\n"
    "  [--durability=off|async|sync] [--wal-dir=PATH] "
    "[--checkpoint-interval=N]\n";

/// The ServiceFlags fields a StackConfig sets: the durability rules.
inline ServiceFlags stackFlags(const StackConfig &C) {
  ServiceFlags F;
  F.Durability = C.Dur;
  F.WalDirSet = !C.WalDir.empty();
  F.CheckpointSet = C.CheckpointInterval > 0;
  return F;
}

inline kv::StoreConfig storeConfig(const StackConfig &C) {
  kv::StoreConfig KC;
  KC.Shards = C.Shards;
  uint32_t PerShard = uint32_t(2 * C.Keys / (C.Shards ? C.Shards : 1));
  KC.CapacityPerShard = PerShard < 8 ? 8 : PerShard;
  return KC;
}

/// Inserts keys 0..Keys-1 with value 1000. \returns Keys on success, else
/// the first key that did not fit.
inline uint64_t prepopulate(kv::Store &S, uint64_t Keys) {
  for (uint64_t K = 0; K < Keys; ++K)
    if (!S.insert(K, 1000))
      return K;
  return Keys;
}

/// The store and its optional durability plane. The constructor runs the
/// paper's +DEA strong mode (barriers on, objects born Private until a
/// transactional ref store publishes them), prepopulates the store, turns
/// the snapshot plane on, then attaches the WAL and starts the
/// checkpointer. Its front end (in-process workers or net::Server) stops
/// first; stopDurability() then stops the rest in DESIGN.md §13's order.
struct ServiceStack {
  /// \p Snapshots: the workload reads the snapshot plane. A checkpointer
  /// turns it on regardless. \p Tag names the scratch log directory.
  ServiceStack(const char *Prog, const StackConfig &C, bool Snapshots,
               const std::string &Tag)
      : SC(strongConfig(C)), S(H, storeConfig(C)), Dur(C.Dur) {
    uint64_t Loaded = prepopulate(S, C.Keys);
    if (Loaded != C.Keys) {
      std::fprintf(stderr,
                   "%s: prepopulate overflow at key %" PRIu64
                   " (shard full)\n",
                   Prog, Loaded);
      std::exit(1);
    }
    // The snapshot plane goes live only after prepopulate: the bulk
    // inserts need no version history, and keeping them chain-less means
    // every run starts from the same store state. The checkpointer's
    // store scan pins a snapshot epoch for a commit-order-consistent
    // image (kv/Checkpoint.h).
    if (Snapshots || C.CheckpointInterval) {
      stm::Config Cfg = stm::config();
      Cfg.SnapshotEnabled = true;
      SnapSC.emplace(Cfg);
    }
    if (C.Dur == kv::DurabilityMode::Off)
      return;
    // The log covers post-load mutations (recovery = prepopulate +
    // replay), so it attaches only after the bulk inserts.
    ScratchLog = C.WalDir.empty();
    WC.Dir = ScratchLog ? defaultWalDir(Tag) : C.WalDir;
    std::filesystem::remove_all(WC.Dir); // Start from an empty log.
    W.emplace(WC);
    W->start();
    S.attachWal(&*W);
    if (C.CheckpointInterval) {
      kv::Checkpointer::Config CC;
      CC.IntervalOps = C.CheckpointInterval;
      CP.emplace(S, *W, CC);
      CP->start();
    }
  }

  ~ServiceStack() {
    stopDurability();
    if (W && ScratchLog)
      std::filesystem::remove_all(WC.Dir);
    // The version table keys raw Object* into this heap: clear it before
    // H dies so the next run cannot alias stale keys.
    stm::snap::resetTable();
  }

  ServiceStack(const ServiceStack &) = delete;
  ServiceStack &operator=(const ServiceStack &) = delete;

  /// Checkpointer first (runOnce needs a live log), then the WAL's final
  /// drain and fsync: afterwards the log holds every commit. Idempotent.
  void stopDurability() {
    if (CP)
      CP->stop();
    if (W) {
      S.attachWal(nullptr);
      W->stop();
    }
  }

  kv::Wal *wal() { return W ? &*W : nullptr; }
  /// The log acks wait on: non-null only under --durability=sync.
  kv::Wal *syncWal() {
    return Dur == kv::DurabilityMode::Sync ? wal() : nullptr;
  }

  stm::ScopedConfig SC;
  rt::Heap H;
  kv::Store S;
  std::optional<stm::ScopedConfig> SnapSC;
  kv::Wal::Config WC;
  std::optional<kv::Wal> W;
  std::optional<kv::Checkpointer> CP;

private:
  static stm::Config strongConfig(const StackConfig &C) {
    stm::Config Cfg;
    Cfg.DeaEnabled = true;
    Cfg.IrrevocableAfterAborts = C.IrrevocableAfterAborts;
    Cfg.KarmaPriority = C.Karma;
    return Cfg;
  }

  /// Per-run scratch log directory under /tmp: pid-qualified so parallel
  /// CI jobs cannot collide, tag-qualified so a leftover from a crashed
  /// run is attributable.
  static std::string defaultWalDir(std::string Tag) {
    for (char &Ch : Tag)
      if (Ch == '/')
        Ch = '_';
    return "/tmp/satm-wal-" + std::to_string(long(::getpid())) + "-" + Tag;
  }

  kv::DurabilityMode Dur;
  bool ScratchLog = false;
};

} // namespace bench
} // namespace satm

#endif // SATM_BENCH_SERVICESTACK_H
