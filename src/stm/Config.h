//===- stm/Config.h - Global STM runtime configuration ---------*- C++ -*-===//
//
// Part of the SATM project, reproducing Shpeisman et al., PLDI 2007.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Process-global configuration of the STM runtime. Experiments flip these
/// knobs between phases (with no worker threads running) to select the
/// regimes the paper compares: dynamic escape analysis on/off (Figure 9 vs
/// Figure 10 barriers), versioning granularity (§2.4 anomalies), commit
/// quiescence (§3.4), and the deterministic schedule hooks the anomaly
/// litmus tests use.
///
//===----------------------------------------------------------------------===//

#ifndef SATM_STM_CONFIG_H
#define SATM_STM_CONFIG_H

#include "rt/Heap.h"

#include <cstdint>
#include <functional>

namespace satm {
namespace rt {
class Object;
} // namespace rt

namespace stm {

class Txn;
class LazyTxn;

/// Identifies a cooperative-scheduling yield point inside the STM runtime.
/// The src/check SchedExplorer interposes on these to own every scheduling
/// decision of a multi-threaded test program; see DESIGN.md ("Schedule
/// exploration").
enum class YieldPoint : uint8_t {
  /// Eager txn (or lazy read): spinning on a record owned by someone else.
  /// The record pointer and the observed word are passed so a scheduler can
  /// park the thread until the record changes.
  TxnContention,
  /// Eager txn: abort decided, undo log not yet rolled back. This is the
  /// eager analog of the lazy write-back window: memory still holds
  /// speculative values that are about to be overwritten.
  TxnRollback,
  /// Non-transactional read barrier spinning on a conflict.
  NtReadBarrier,
  /// Non-transactional write barrier spinning on a conflict.
  NtWriteBarrier,
  /// Lazy txn: commit point passed (validation done), no buffered update
  /// written back yet — the §2.3 memory-inconsistency window.
  LazyCommitPoint,
  /// Lazy txn: before each individual buffered granule is written back.
  LazyWritebackEntry,
  /// Lazy txn: commit-time lock acquisition spinning on a conflict.
  LazyCommitAcquire,
  /// Contention-manager serial gate: waiting to acquire the gate, waiting
  /// for active transactions to drain, or (in a begin/barrier) waiting for
  /// the serial-irrevocable owner to finish.
  SerialGate,
  /// Snapshot plane: a snapshot transaction just pinned the stable epoch
  /// (Txn::beginSnapshot). Reads that follow are wait-free.
  SnapshotPin,
  /// Snapshot plane: before a wait-free versioned read. The record pointer
  /// and observed word are passed for parity with the other read points,
  /// though a snapshot read never blocks on them.
  SnapshotRead,
  /// Snapshot plane: a committer waiting in finishPublish for earlier
  /// publish tickets to reach the stable epoch (in-order advance).
  SnapshotPublish,
  /// Quiescence scan: a committer waiting in waitForValidationSince /
  /// waitForPriorWritebacks on one other thread's slot. Lets the
  /// cooperative explorer schedule through QuiesceOnCommit waits.
  QuiesceWait,
};

/// Cooperative-scheduler yield callback. \p Rec (nullable) is the record
/// the yielding thread is blocked on, with \p Observed the record word it
/// saw; a null \p Rec means the thread is merely offering a preemption
/// opportunity and stays runnable. Null in production: each yield point
/// costs one pointer test when disabled, the same cost model as TxnHooks.
using SchedYieldFn = void (*)(YieldPoint, const std::atomic<Word> *Rec,
                              Word Observed);

/// Schedule-control callbacks used by the Figure 6 anomaly litmus tests to
/// make inherently racy interleavings deterministic. All hooks default to
/// null and cost one pointer test when disabled.
struct TxnHooks {
  /// Eager txn: after a record is acquired for write, before the store.
  std::function<void(Txn &, rt::Object *, uint32_t)> AfterEagerAcquire;
  /// Eager txn: before each undo-log entry is rolled back on abort.
  std::function<void(Txn &)> BeforeRollback;
  /// Eager/lazy txn: right after read-set validation succeeds at commit.
  std::function<void(void *)> AfterValidate;
  /// Lazy txn: after the commit point (status -> Committed) but before any
  /// buffered update is written back. This is the §2.3 ordering window.
  std::function<void(LazyTxn &)> BeforeWriteback;
  /// Lazy txn: before each individual buffered update is written back.
  std::function<void(LazyTxn &, rt::Object *, uint32_t)>
      BeforeWritebackEntry;
};

/// What an isolation barrier observed when it hit a conflict, for the
/// §3.2 race-reporting mode ("conflicts could signal a race by throwing an
/// exception or breaking to the debugger. Isolation barriers can thus aid
/// in debugging concurrent programs").
struct RaceInfo {
  const rt::Object *Obj; ///< The contended object.
  uint32_t Slot;         ///< Slot the barrier was accessing.
  bool IsWrite;          ///< This side was a write barrier.
  /// True if the conflicting owner is a transaction (Exclusive record);
  /// false for a concurrent non-transactional writer (Exclusive-anonymous).
  bool PartnerIsTxn;
};

/// Transaction-vs-transaction conflict resolution policies (§3.2's
/// conflict manager "backs off and returns so that the barriers retry";
/// for transactions the same manager also decides who gives up).
enum class ContentionPolicy : uint8_t {
  /// Bounded exponential backoff, then abort self (2PL deadlock
  /// avoidance). The default.
  BackoffThenAbort,
  /// Like BackoffThenAbort with a 16x larger patience budget: fewer
  /// aborts, longer waits.
  Polite,
  /// Abort self immediately on any conflict: no waiting at all.
  Timid,
  /// Age-based: the older transaction (earlier start stamp) waits
  /// patiently; the younger aborts itself immediately. Livelock-free by
  /// construction (the oldest transaction in the system always wins).
  Timestamp,
};

/// Global runtime knobs. Mutate only while no worker threads run.
struct Config {
  /// Dynamic escape analysis (§4): objects are born Private and the
  /// barriers take the Figure 10 private fast paths. When false, objects
  /// are born Shared and the Figure 9 barriers are used.
  bool DeaEnabled = false;

  /// Versioning granularity in slots (1 or 2). With granularity 2 the undo
  /// log and the lazy write buffer cover an aligned *pair* of slots, which
  /// reproduces the paper's §2.4 granular lost update / inconsistent read
  /// anomalies for sub-entry non-transactional writes.
  uint32_t LogGranularitySlots = 1;

  /// A transaction revalidates its read set every N transactional reads, to
  /// bound how long a doomed transaction can compute on inconsistent state
  /// (the paper's system leans on managed-language safety here, §3.4 fn.4).
  uint32_t ValidateEvery = 64;

  /// Commit-time quiescence (§3.4): an eager transaction completes only
  /// after all concurrent transactions have validated; a lazy transaction
  /// completes only after previously serialized transactions finish their
  /// write-back.
  bool QuiesceOnCommit = false;

  /// Multi-version snapshot read plane (DESIGN.md §10): committing writers
  /// publish epoch-stamped version records and Txn::beginSnapshot reads a
  /// consistent snapshot wait-free. Off by default — publication costs one
  /// object copy per written object per commit.
  bool SnapshotEnabled = false;

  /// How many contention-manager pauses a transaction tolerates before it
  /// aborts itself (2PL deadlock avoidance).
  uint32_t ConflictPauseLimit = 64;

  /// Transaction-vs-transaction conflict policy.
  ContentionPolicy Contention = ContentionPolicy::BackoffThenAbort;

  /// Karma-style priority layer on BackoffThenAbort: when two transactions
  /// collide, the one with fewer consecutive aborts self-aborts immediately
  /// and the one with more gets a 16x patience budget — repeat losers win
  /// eventually instead of burning their whole pause budget each round.
  /// Ties (the common uncontended case) behave exactly like the base
  /// policy.
  bool KarmaPriority = false;

  /// Contention-management escalation threshold: after this many
  /// *consecutive* conflict aborts, a transaction's next attempt runs in
  /// serial-irrevocable mode — it quiesces the system via stm/Quiesce,
  /// runs undo-free under the serial gate, and cannot be killed by
  /// non-transactional accesses. 0 disables escalation (default). This
  /// bounds worst-case retry work and breaks the hot-nt-writer/long-txn
  /// livelock that strong atomicity otherwise permits (PAPER.md §3).
  uint32_t IrrevocableAfterAborts = 0;

  /// Lazy STM write-back order. The paper's §2.3 stresses that buffered
  /// values are copied back "one at a time in no particular order"; the
  /// Figure 4(a) litmus selects reverse insertion order to exhibit the
  /// overlapped-writes inconsistency deterministically.
  bool ReverseWriteback = false;

  /// Schedule hooks for litmus tests; null in production.
  TxnHooks *Hooks = nullptr;

  /// Cooperative-scheduler yield hook (src/check SchedExplorer); null in
  /// production.
  SchedYieldFn Yield = nullptr;

  /// Event-counter collection in the isolation barriers. On by default;
  /// the Figure 15-17 harnesses switch it off while timing so the DEA
  /// fast path costs what the paper's two-instruction sequence costs.
  bool CollectStats = true;

  /// §3.2 race-detection mode: when set, an isolation barrier that
  /// observes a conflicting owner reports it here (once per barrier
  /// invocation) before backing off and retrying as usual. The handler
  /// runs on the conflicting accessor's thread and must be thread-safe.
  std::function<void(const RaceInfo &)> RaceReport;

  /// Birth state matching DeaEnabled.
  rt::BirthState birthState() const {
    return DeaEnabled ? rt::BirthState::Private : rt::BirthState::Shared;
  }
};

namespace detail {
/// Storage for the process-global configuration. Access via config().
inline Config GlobalConfig;
} // namespace detail

/// The process-global configuration block. Inline so barrier fast paths
/// read the flags without a function call.
inline Config &config() { return detail::GlobalConfig; }

/// Yields to the cooperative scheduler, if one is installed. One pointer
/// test when disabled.
inline void schedYield(YieldPoint P, const std::atomic<Word> *Rec = nullptr,
                       Word Observed = 0) {
  if (SchedYieldFn F = config().Yield)
    F(P, Rec, Observed);
}

/// RAII helper for tests: applies a configuration and restores the previous
/// one on scope exit.
class ScopedConfig {
public:
  explicit ScopedConfig(const Config &New) : Saved(config()) {
    config() = New;
  }
  ~ScopedConfig() { config() = Saved; }
  ScopedConfig(const ScopedConfig &) = delete;
  ScopedConfig &operator=(const ScopedConfig &) = delete;

private:
  Config Saved;
};

} // namespace stm
} // namespace satm

#endif // SATM_STM_CONFIG_H
