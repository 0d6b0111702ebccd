//===- stm/Txn.h - Eager-versioning transaction (McRT style) ---*- C++ -*-===//
//
// Part of the SATM project, reproducing Shpeisman et al., PLDI 2007.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The eager-versioning transaction at the core of the paper's system:
/// "optimistic concurrency control using versioning for reads and strict
/// two-phase locking and eager versioning for writes" (§3, McRT-STM [49]).
///
///  - Reads log the observed Shared record word and are validated (against
///    the current record) periodically and at commit.
///  - Writes acquire the object's record Shared -> Exclusive via CAS, log
///    the old value in an undo log, and update memory in place.
///  - Abort rolls the undo log back in reverse and releases the records
///    with a version bump.
///  - Closed nesting uses savepoints (partial rollback on user abort);
///    open nesting commits an inner region's writes independently and
///    registers compensation actions with the parent (§3, [45]).
///  - User-initiated retry aborts and blocks until the read set changes.
///
/// Abort unwinding uses a dedicated RollbackSignal object thrown across the
/// transaction body. This is the project's one deliberate deviation from
/// the no-exceptions rule: a longjmp would skip destructors in user bodies,
/// and the signal never escapes Txn::run / LazyTxn::run.
///
//===----------------------------------------------------------------------===//

#ifndef SATM_STM_TXN_H
#define SATM_STM_TXN_H

#include "rt/Object.h"
#include "stm/Config.h"
#include "stm/Quiesce.h"
#include "stm/Snapshot.h"
#include "stm/Stats.h"
#include "stm/TxRecord.h"
#include "support/Backoff.h"
#include "support/FlatPtrMap.h"

#include <cstdint>
#include <functional>
#include <vector>

namespace satm {
namespace stm {

/// Thrown to unwind a transaction body back to its region driver. Never
/// escapes Txn::run / LazyTxn::run.
struct RollbackSignal {
  enum KindTy : uint8_t {
    Conflict,  ///< Contention manager gave up; re-execute from the top.
    UserRetry, ///< txn_retry(): wait for the read set to change, re-execute.
    UserAbort, ///< txn_abort(): roll back to the given nesting depth.
  };
  KindTy Kind;
  size_t Depth; ///< Nesting depth targeted by UserAbort; unused otherwise.
  /// What killed the transaction; folded into the AbortReasons histogram
  /// by the region driver that catches the signal.
  AbortReason Reason = AbortReason::ContentionGiveUp;
};

/// Classifies a contention-manager give-up on a record observed as
/// \p Observed. An Exclusive-anonymous hold means a non-transactional
/// barrier killed us (by access side); an Exclusive (transaction-owned)
/// record is a policy decision (\p BudgetExhausted false: Timid/Timestamp
/// chose to abort) or a 2PL pause-budget give-up.
inline AbortReason giveUpReason(bool IsRead, Word Observed,
                                bool BudgetExhausted) {
  if (TxRecord::isExclusiveAnon(Observed))
    return IsRead ? AbortReason::NtReadKill : AbortReason::NtWriteKill;
  return BudgetExhausted ? AbortReason::ContentionGiveUp
                         : AbortReason::WriteLockConflict;
}

/// Per-thread eager transaction descriptor. Access via forThisThread() and
/// drive regions with the static run* entry points; the instance methods
/// read/write are valid only inside a running region.
///
/// Cache-line aligned: the descriptor address is published in every record
/// this transaction owns and StartStamp is read by other threads'
/// contention managers, so the descriptor must not share a line with
/// neighboring thread_local data (false sharing at 8-16 threads).
class alignas(64) Txn {
public:
  /// The calling thread's descriptor (created on first use).
  static Txn &forThisThread();

  /// True while a region body on this thread is executing.
  bool isActive() const { return Depth > 0; }

  /// Nesting depth (1 = outermost region).
  size_t depth() const { return Depth; }

  //===--------------------------------------------------------------------===
  // Region drivers.
  //===--------------------------------------------------------------------===

  /// Executes \p Body atomically. Re-executes on conflict or retry. Called
  /// inside an active region, it opens a closed-nested region.
  /// \returns true, unless the region (or an enclosing one via a thrown
  /// signal) was explicitly aborted with userAbort(), in which case the
  /// body's effects are rolled back and false is returned.
  template <typename F> static bool run(F &&Body) {
    Txn &T = forThisThread();
    if (T.isActive())
      return T.runNested(Body);
    return T.runOutermost(Body);
  }

  /// Executes \p Body as an open-nested transaction: its writes commit when
  /// the body completes, independently of the enclosing transaction.
  /// \p OnParentAbort, if non-null, is registered as a compensation action
  /// run if the enclosing transaction later aborts. Must be called inside
  /// an active region. Intended for parent-disjoint data (see DESIGN.md).
  template <typename F>
  static void runOpenNested(F &&Body,
                            std::function<void()> OnParentAbort = nullptr) {
    Txn &T = forThisThread();
    T.beginOpenNested();
    bool Ok = false;
    try {
      Body();
      Ok = true;
    } catch (...) {
      T.abortOpenNested();
      throw;
    }
    (void)Ok;
    T.commitOpenNested(std::move(OnParentAbort));
  }

  /// Executes \p Body as a snapshot transaction (DESIGN.md §10): reads are
  /// served wait-free from the multi-version plane against an epoch pinned
  /// at begin — no validation, no read-induced aborts, no ownership-record
  /// CASes. Writes are optional and run under first-committer-wins: the
  /// write path acquires records as usual and aborts the region if the
  /// written object has a version newer than the pinned epoch, which with
  /// unvalidated reads makes the region snapshot-isolated (write skew is
  /// admitted; see tests/check/SnapshotExploreTest.cpp). A read-only body
  /// can never abort and performs no atomic RMW at all. Requires
  /// config().SnapshotEnabled and no enclosing transaction.
  /// \returns true unless the body called userAbort().
  template <typename F> static bool runSnapshot(F &&Body) {
    Txn &T = forThisThread();
    assert(!T.isActive() && "snapshot region inside an active transaction");
    Backoff RetryBackoff;
    for (;;) {
      T.beginSnapshot();
      try {
        Body();
        (void)T.tryCommitSnapshot(); // Cannot fail: abort paths throw.
        T.ConsecAborts = 0;
        return true;
      } catch (RollbackSignal &S) {
        if (S.Kind == RollbackSignal::UserRetry) {
          T.ConsecAborts = 0;
          noteUserRetry();
          std::vector<ReadEntry> Snapshot = std::move(T.ReadSet);
          T.rollbackAll();
          waitForChange(Snapshot);
          continue;
        }
        T.rollbackAll();
        noteTxnAbort(S.Reason);
        if (S.Kind == RollbackSignal::UserAbort) {
          T.ConsecAborts = 0;
          return false;
        }
        ++T.ConsecAborts; // First-committer-wins loss or injected fault.
      } catch (...) {
        T.rollbackAll();
        noteTxnAbort(AbortReason::UserAbort);
        T.ConsecAborts = 0;
        throw;
      }
      RetryBackoff.pause();
    }
  }

  //===--------------------------------------------------------------------===
  // Transactional data access (only valid while active).
  //===--------------------------------------------------------------------===

  /// Transactional load of scalar slot \p Slot of \p O. Inline dispatch so
  /// the snapshot-mode fast path costs what the inline nt barrier costs;
  /// the ordinary optimistic read stays out of line.
  Word read(rt::Object *O, uint32_t Slot) {
    if (SnapMode)
      return snapshotRead(O, Slot);
    return readShared(O, Slot);
  }

  /// Transactional store to scalar slot \p Slot of \p O.
  void write(rt::Object *O, uint32_t Slot, Word V) {
    writeImpl(O, Slot, V, /*IsRef=*/false);
  }

  /// Transactional load of a reference slot.
  rt::Object *readRef(rt::Object *O, uint32_t Slot) {
    return rt::Object::fromWord(read(O, Slot));
  }

  /// Transactional store of a reference. If this object is public and the
  /// referee is private, the referee's object graph is published first
  /// (§4: even inside transactions, because doomed transactions of other
  /// threads may reach it before commit).
  void writeRef(rt::Object *O, uint32_t Slot, rt::Object *Referee) {
    writeImpl(O, Slot, rt::Object::toWord(Referee), /*IsRef=*/true);
  }

  /// User-initiated retry: aborts, waits for the read set to change, then
  /// re-executes the outermost region.
  [[noreturn]] void userRetry();

  /// User-initiated abort of the innermost region: rolls its effects back
  /// and makes its run() return false.
  [[noreturn]] void userAbort();

  /// Aborts the whole transaction and immediately re-executes it (no
  /// wait-for-change). Exposed for external contention policies and for
  /// the anomaly litmus tests, which use it to force the "/*abort*/" arms
  /// of the paper's Figure 3 examples deterministically.
  [[noreturn]] void abortRestart();

  /// Registers an action to run after the outermost commit (used by open
  /// nesting and by tests).
  void onCommit(std::function<void()> Action) {
    CommitActions.push_back(std::move(Action));
  }

  /// Registers a compensation action to run after an abort of the
  /// outermost region.
  void onAbort(std::function<void()> Action) {
    AbortActions.push_back(std::move(Action));
  }

  /// A publish-window action: runs at commit *inside* the snapshot publish
  /// window, after waitPublishTurn (this committer is globally unique in
  /// the publish order) and before completePublish. The durability plane
  /// registers redo-record appends here, so log order equals the snapshot
  /// plane's commit order with no extra synchronization. POD shape — a
  /// raw function pointer plus three payload words — because the window
  /// is bound by the non-blocking publish invariant (Quiesce.h) and must
  /// not allocate. Fn receives (Ctx, Ticket, Index, Count, A, B, C) where
  /// Index/Count locate the entry in this transaction's publish group.
  struct PublishEntry {
    void (*Fn)(void *Ctx, uint64_t Ticket, uint32_t Index, uint32_t Count,
               Word A, Word B, Word C);
    void *Ctx;
    Word A, B, C;
  };

  /// Registers a publish-window action (see PublishEntry). Dropped on
  /// abort; truncated with the enclosing savepoint or open-nested frame.
  /// A transaction with publish entries always takes a publish ticket at
  /// commit, even when it publishes no version nodes.
  void onPublish(const PublishEntry &E) { PublishLog.push_back(E); }

  //===--------------------------------------------------------------------===
  // Introspection for tests and stats.
  //===--------------------------------------------------------------------===

  size_t readSetSize() const { return ReadSet.size(); }
  size_t writeSetSize() const { return WriteLocks.size(); }
  size_t undoLogSize() const { return UndoLog.size(); }

  /// Start stamp of the currently running transaction (Timestamp
  /// contention policy); monotone across the process. Readable by other
  /// threads while this transaction is active.
  uint64_t startStamp() const {
    return StartStamp.load(std::memory_order_acquire);
  }

  /// True while this attempt runs in serial-irrevocable mode (the
  /// contention-management escalation endpoint: the system is drained, the
  /// serial gate is held, and this transaction cannot abort).
  bool inSerialMode() const { return SerialMode; }

  /// True while this attempt is a snapshot transaction (runSnapshot).
  bool inSnapshot() const { return SnapMode; }

  /// The epoch a running snapshot transaction reads at; 0 otherwise.
  uint64_t snapshotEpoch() const { return SnapMode ? SnapEpoch : 0; }

  /// Consecutive conflict aborts of the region currently being retried;
  /// resets on commit, user retry/abort, or a foreign exception. Feeds the
  /// Karma priority comparison and the serial-irrevocable threshold.
  uint32_t consecutiveAborts() const { return ConsecAborts; }

  /// This transaction's published Karma priority (its consecutive-abort
  /// count at begin). Read by *other* threads' contention managers; like
  /// startStamp, racy-by-design advice, not synchronization.
  uint32_t karmaPriority() const {
    return KarmaPub.load(std::memory_order_relaxed);
  }

private:
  Txn() = default;

  struct ReadEntry {
    std::atomic<Word> *Rec;
    Word Observed; ///< The Shared record word observed at read time.
  };
  struct WriteEntry {
    std::atomic<Word> *Rec;
    Word PriorVersion; ///< Version the record held when acquired.
  };
  struct UndoEntry {
    rt::Object *Obj;
    uint32_t Slot;
    Word OldValue;
  };
  struct Savepoint {
    size_t Reads, Locks, Undos, Commits, Aborts, Publishes;
  };

  template <typename F> bool runOutermost(F &Body) {
    Backoff RetryBackoff;
    for (;;) {
      maybeEscalateToSerial();
      begin();
      try {
        injectOpenFault();
        Body();
        if (tryCommit()) {
          ConsecAborts = 0;
          return true;
        }
        noteTxnAbort(AbortReason::ReadValidation);
        ++ConsecAborts;
      } catch (RollbackSignal &S) {
        if (S.Kind == RollbackSignal::UserRetry) {
          ConsecAborts = 0;
          noteUserRetry();
          // Steal the read set rather than copy it: rollbackAll() only
          // clear()s the vector, which leaves a moved-from one empty too.
          std::vector<ReadEntry> Snapshot = std::move(ReadSet);
          rollbackAll();
          waitForChange(Snapshot);
          continue;
        }
        rollbackAll();
        noteTxnAbort(S.Reason);
        if (S.Kind == RollbackSignal::UserAbort) {
          ConsecAborts = 0;
          return false;
        }
        // Conflict-kind aborts (including injected ones) feed the
        // contention-management ladder.
        ++ConsecAborts;
      } catch (...) {
        // A foreign exception (e.g. a runtime error in an interpreter
        // body) unwinds through the region: abort cleanly, then let it
        // propagate.
        rollbackAll();
        noteTxnAbort(AbortReason::UserAbort);
        ConsecAborts = 0;
        throw;
      }
      RetryBackoff.pause();
    }
  }

  template <typename F> bool runNested(F &Body) {
    pushSavepoint();
    try {
      Body();
    } catch (RollbackSignal &S) {
      if (S.Kind == RollbackSignal::UserAbort && S.Depth == Depth) {
        rollbackToSavepoint();
        return false;
      }
      popSavepointKeep();
      throw; // Conflict / retry / outer abort: unwind further.
    }
    popSavepointKeep();
    return true;
  }

  void begin();
  bool tryCommit();
  bool commitSerial();
  /// Snapshot-region begin: begin() plus pinning the stable snapshot epoch.
  void beginSnapshot();
  /// Snapshot-region commit. Read-only: marks inactive and returns — no
  /// validation, no publication. With writes: publishes version records
  /// and releases the locks (reads are never validated; isolation is
  /// first-committer-wins, enforced at acquire time). Abort paths throw.
  bool tryCommitSnapshot();
  /// Wait-free versioned read at the pinned epoch (snapshot mode only).
  /// The production chain-less fast path is inlined: while no scheduler
  /// hook is installed and the version table is empty, every object class
  /// reads in place — private and self-Exclusive by definition, chain-less
  /// shared per the empty-table argument at snap::readAtEpoch (any dirty
  /// in-place transactional write, our own included, is preceded by
  /// ensureBaseNode, so the re-check routes it to the record-probing slow
  /// path, which also preserves read-your-writes). Under the explorer
  /// (config().Yield set) the slow path runs unconditionally so explored
  /// event streams and their replay tokens are unchanged.
  Word snapshotRead(rt::Object *O, uint32_t Slot) {
    const Config &Cfg = config();
    if (!Cfg.Yield && snap::tableEntries() == 0) {
      if (Cfg.CollectStats)
        ++PendingSnapReads;
      Word V = O->rawLoad(Slot, std::memory_order_acquire);
      if (snap::tableEntries() == 0)
        return V;
      if (Cfg.CollectStats)
        --PendingSnapReads; // The slow path re-counts.
    }
    return snapshotReadSlow(O, Slot);
  }
  /// Ordinary optimistic read: record probe, read-set logging, periodic
  /// validation (the pre-snapshot Txn::read body).
  Word readShared(rt::Object *O, uint32_t Slot);
  /// Record-probing snapshot read: private objects, read-your-writes, the
  /// explorer SnapshotRead yield point, and the version-chain walk.
  Word snapshotReadSlow(rt::Object *O, uint32_t Slot);
  /// Publishes one version record per held write lock onto the snapshot
  /// plane and returns the publish ticket; the caller must pass it to
  /// Quiescence::finishPublish after releasing the locks. Called between
  /// validation and lock release, so the node-allocation failure path
  /// (fault-injected) can still abort cleanly; throws RollbackSignal then.
  uint64_t publishVersions();
  /// Runs the publish window for \p Ticket: waits for the publish turn,
  /// fires every PublishLog entry (this committer is unique in the publish
  /// order), then advances the stable epoch. Non-blocking per the
  /// Quiescence publish invariant.
  void runPublishWindow(uint64_t Ticket);
  void rollbackAll();
  /// Ladder escalation check before each attempt: past the configured
  /// consecutive-abort threshold, acquires the serial gate and drains the
  /// system so the coming attempt runs serial-irrevocable.
  void maybeEscalateToSerial();
  /// FaultSite::TxnOpen injection (out of line so this header needs no
  /// FaultInjector include); throws a FaultInjected conflict when it fires.
  void injectOpenFault();
  /// Irrevocability contract violation (user abort/retry, conflict, or a
  /// foreign exception inside a serial-mode body): prints and terminates,
  /// the same contract GCC's transactional memory gives irrevocable
  /// regions.
  [[noreturn]] static void serialFatal(const char *What);
  void pushSavepoint();
  void popSavepointKeep();
  void rollbackToSavepoint();
  void beginOpenNested();
  void commitOpenNested(std::function<void()> OnParentAbort);
  void abortOpenNested();

  void writeImpl(rt::Object *O, uint32_t Slot, Word V, bool IsRef);
  void acquireForWrite(rt::Object *O, std::atomic<Word> &Rec);
  void logUndo(rt::Object *O, uint32_t Slot);

  /// The WriteLocks entry for a record this transaction owns, found through
  /// WriteLockIndex, or null. Stale index entries (their lock released by a
  /// savepoint/open-nesting truncation) fail the Rec recheck and read as
  /// absent, which is why releaseLockRange needs no index maintenance.
  const WriteEntry *findWriteLock(const std::atomic<Word> *Rec) const {
    const uint32_t *Idx = WriteLockIndex.find(Rec);
    if (!Idx || *Idx >= WriteLocks.size() || WriteLocks[*Idx].Rec != Rec)
      return nullptr;
    return &WriteLocks[*Idx];
  }

  /// Shared body of begin()/beginSnapshot(). With \p EagerStamp false the
  /// globally contended start-stamp fetch-add is skipped and StartStamp is
  /// zeroed; acquireForWrite stamps lazily on the first write acquisition.
  void beginImpl(bool EagerStamp);
  bool validateReadSet();
  void maybePeriodicValidate();
  [[noreturn]] void conflictAbort(AbortReason Reason);
  void contentionPause(Backoff &B, uint32_t &Pauses,
                       const std::atomic<Word> *Rec, Word ObservedRecord,
                       bool IsRead);
  void rollbackUndoRange(size_t Begin, size_t End);
  void releaseLockRange(size_t Begin, size_t End);
  static void waitForChange(const std::vector<ReadEntry> &Snapshot);
  void resetState();

  std::vector<ReadEntry> ReadSet;
  std::vector<WriteEntry> WriteLocks;
  /// Record -> index into WriteLocks. Open-addressing and generation-
  /// cleared, so first-write acquisition and lock release never allocate
  /// in steady state (the std::unordered_map it replaces allocated a node
  /// on every first write to an object).
  FlatPtrMap<uint32_t> WriteLockIndex;
  /// Read-set filter: (record, observed word) pairs already appended to
  /// ReadSet. A hit skips the append, making the read set — and hence
  /// validation — O(unique objects) instead of O(reads). Lossy: an
  /// evicted entry only costs a duplicate ReadSet entry.
  DirectMapFilter<8> ReadFilter;
  /// Undo-log filter keyed on the logged slot group's address: repeated
  /// writes to one slot log one undo entry. Flushed at savepoint and
  /// open-nesting boundaries — the undo log is truncated *by index* there,
  /// so entries below a boundary must not satisfy writes above it.
  DirectMapFilter<8> UndoFilter;
  std::vector<UndoEntry> UndoLog;
  std::vector<Savepoint> Savepoints;
  std::vector<std::function<void()>> CommitActions;
  std::vector<std::function<void()>> AbortActions;
  std::vector<PublishEntry> PublishLog;
  size_t Depth = 0;
  /// Read/write op counts of the transaction in flight, folded into the
  /// thread's stats block once per transaction end (resetState). Plain
  /// fields, not RelaxedCounter cells: the per-access increment is the
  /// hottest accounting in the system, and a plain increment on
  /// transaction-private state stays coalescable by the compiler, where a
  /// relaxed atomic store per access is not.
  uint64_t PendingReads = 0;
  uint64_t PendingWrites = 0;
  /// Next read-set size at which to revalidate; doubles after each
  /// periodic validation so total validation work stays linear in the
  /// read-set size.
  size_t NextValidateAt = 0;
  /// Begin-time stamp for the Timestamp contention policy.
  std::atomic<uint64_t> StartStamp{0};
  /// Open-nesting frames: (savepoint, locks-at-begin) pairs.
  std::vector<Savepoint> OpenFrames;
  Quiescence::Slot *QSlot = nullptr;
  /// Consecutive conflict aborts of the region being retried (private,
  /// only this thread).
  uint32_t ConsecAborts = 0;
  /// ConsecAborts republished at begin for other threads' Karma
  /// comparisons.
  std::atomic<uint32_t> KarmaPub{0};
  /// This attempt runs serial-irrevocable (gate held, system drained).
  bool SerialMode = false;
  /// This attempt is a snapshot transaction (runSnapshot).
  bool SnapMode = false;
  /// The epoch pinned by the running snapshot transaction.
  uint64_t SnapEpoch = 0;
  /// Snapshot reads in flight, folded into the stats block at region end
  /// (same discipline as PendingReads).
  uint64_t PendingSnapReads = 0;
};

/// Convenience free function mirroring the paper's `atomic { B }`.
template <typename F> bool atomically(F &&Body) {
  return Txn::run(std::forward<F>(Body));
}

} // namespace stm
} // namespace satm

#endif // SATM_STM_TXN_H
