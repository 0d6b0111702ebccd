//===- kv/Wal.h - SATM-KV durability plane: one redo log ------*- C++ -*-===//
//
// Part of the SATM project, reproducing Shpeisman et al., PLDI 2007.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The SATM-KV durability plane: one append-only redo log with group
/// commit and crash recovery (DESIGN.md §12). One ring, one drain thread
/// and one file, whatever the store's shard count.
///
/// Ordering. Committing transactions publish fixed-format redo records
/// into the in-memory ring *inside the snapshot publish window* — between
/// Quiescence::waitPublishTurn and completePublish — where the committer
/// is globally unique in the publish order. Ring order, and so file
/// order, therefore equals the snapshot plane's commit order by
/// construction: no log-side CAS, no sequencer, no multi-producer races.
/// The hand-off to the drain thread is privatization-shaped (the ring
/// slot passes from the transactional world to an I/O thread); the
/// release store that bumps the ring head is the only barrier it needs,
/// because the drainer never touches STM state. The publish window's
/// non-blocking invariant (Quiesce.h) is preserved in the sense that
/// matters for deadlock freedom: an append can wait only on the drain
/// thread (ring full), and the drain thread never takes a publish ticket
/// or any STM resource, so no wait cycle through the publish order can
/// form.
///
/// Group commit. Each drain cycle writes everything the ring holds with
/// one writev straight from the ring (at most two contiguous spans), then
/// issues one fsync, and the LSN it read before draining becomes the
/// durable cut.
///
/// Record format: 40 bytes, five host-endian words —
///   [0] Lsn       log sequence number = BaseLsn + publish ticket; all
///                 records of one transaction share it
///   [1] Meta      op (low 8 bits) | index-within-txn (bits 8..31)
///                 | txn span (bits 32..63)
///   [2] Key
///   [3] Val       (ignored for Erase)
///   [4] Check     seeded SplitMix-style mix of words 0..3
///
/// Recovery replays the *maximal durable prefix of the commit order* in
/// one sequential scan. It stops at the first record that fails its
/// checksum or does not advance (Lsn, Index), never replaying it, and
/// cuts the replay at the last complete transaction group before that
/// point or before the first LSN hole. Logged LSNs are contiguous from 2
/// by construction: every logging commit takes the next publish ticket,
/// and start() derives BaseLsn from the live ticket counter, so the first
/// logged record continues the on-disk history at exactly its cut + 1,
/// no matter how many tickets recovery replay or pre-attach traffic
/// consumed. A skipped LSN, including a missing first LSN (always 2), is
/// therefore a lost commit. The beyond-cut suffix is truncated and the
/// file and directory fsynced, so a later run cannot resurrect it even
/// across power loss.
///
/// Checkpoints (kv/Checkpoint.h; DESIGN.md §14) bound both halves of
/// that story. recover() first loads the newest *valid* checkpoint in
/// the directory (falling back to the previous one, then to empty, on
/// corruption) and replays only WAL records with LSN above the
/// checkpoint's barrier; truncateBelow() lets the checkpointer rotate
/// the already-covered log prefix out of the file. Contiguity is then
/// demanded from barrier + 1, not from 2.
///
/// Degraded mode. A failed write or fsync (real ENOSPC/EIO, or the
/// injected log_enospc site) does not abort the process: the WAL seals —
/// DurableLsn freezes at the last honestly-fsynced cut, later ring
/// contents are consumed and discarded (counted in
/// WalStats::DroppedRecords), and every waitDurable call for an LSN
/// beyond the frozen cut returns DurableWait::DurabilityLost instead of
/// blocking. Reads and async traffic keep flowing; only the sync-ack
/// promise is withdrawn, and visibly so.
///
//===----------------------------------------------------------------------===//

#ifndef SATM_KV_WAL_H
#define SATM_KV_WAL_H

#include "stm/Txn.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>

namespace satm {
namespace kv {

class Store;
using stm::Word;

/// Service-level durability modes (kv_service --durability=...). The Wal
/// itself is mode-agnostic — Off means no Wal is attached at all, and
/// Sync vs Async is whether the caller waits on waitDurable before
/// acking. Kept here so the flag, the bench schema, and the tests share
/// one spelling.
enum class DurabilityMode : uint8_t { Off = 0, Async, Sync };

/// Display key ("off" / "async" / "sync").
const char *durabilityModeName(DurabilityMode M);

/// Parses a --durability value; returns false on unknown spelling.
bool parseDurabilityMode(const char *S, DurabilityMode &Out);

/// Redo operations. Values are stable on-disk format.
enum class WalOp : uint8_t { Put = 1, Erase = 2 };

/// One on-disk redo record (host-endian, fixed 40 bytes).
struct WalRecord {
  uint64_t Lsn;
  uint64_t Meta; ///< op | index<<8 | span<<32 (see file comment).
  uint64_t Key;
  uint64_t Val;
  uint64_t Check;

  static uint64_t packMeta(WalOp Op, uint32_t Index, uint32_t Span) {
    return uint64_t(Op) | (uint64_t(Index & 0xffffffu) << 8) |
           (uint64_t(Span) << 32);
  }
  WalOp op() const { return WalOp(Meta & 0xff); }
  uint32_t index() const { return uint32_t((Meta >> 8) & 0xffffffu); }
  uint32_t span() const { return uint32_t(Meta >> 32); }

  /// Seeded mix of words 0..3 so an all-zero record does not checksum to
  /// zero (a zero-filled tail must read as torn).
  uint64_t checksum() const;
};
static_assert(sizeof(WalRecord) == 40, "on-disk record is 5 words");

/// Drain-side counters (monotone since start()).
struct WalStats {
  uint64_t RecordsAppended = 0; ///< Ring appends (commit side).
  uint64_t RingStalls = 0;      ///< Appends that waited on a full ring.
  uint64_t FsyncBatches = 0;    ///< fsync calls (one per cycle that wrote).
  uint64_t RecordsWritten = 0;  ///< Records handed to write(2).
  uint64_t BytesWritten = 0;
  uint64_t DroppedRecords = 0;  ///< Records discarded while degraded.
  bool Degraded = false;        ///< WAL sealed by an I/O failure.
};

/// Outcome of a waitDurable call.
enum class DurableWait : uint8_t {
  Ok = 0,           ///< The LSN is fsynced.
  DeadlineExceeded, ///< The deadline passed first (durability unknown yet).
  DurabilityLost,   ///< The WAL is degraded and will never reach the LSN.
};

/// Outcome of Wal::recover.
struct RecoveryStats {
  uint64_t RecordsScanned = 0;  ///< Valid records read up to the cut.
  uint64_t RecordsReplayed = 0; ///< Records applied (<= scanned: group cut).
  uint64_t TxnsReplayed = 0;    ///< Complete LSN groups applied.
  uint64_t TornRecords = 0;     ///< Torn/corrupt tails truncated (0 or 1).
  uint64_t TruncatedBytes = 0;  ///< Bytes removed from files (torn + cut).
  uint64_t ApplyFailures = 0;   ///< Replay ops the store rejected (0 = clean).
  uint64_t CutLsn = 0;          ///< Highest LSN recovered (= new base).
  uint64_t CheckpointLsn = 0;   ///< Barrier of the checkpoint loaded (0: none).
  uint64_t CheckpointEntries = 0;   ///< (key,value) pairs applied from it.
  uint64_t CheckpointsDiscarded = 0; ///< Newer-but-invalid checkpoints skipped.
  bool ReclaimIdentityOk = true; ///< reclaimStats() identities held after.
  double Millis = 0;            ///< Wall time of scan + replay.
};

/// Thrown by Wal::recover for a directory that still holds the per-shard
/// log files (shard-NNNN.wal) of the older layout, which it cannot read.
/// Replaying around them would silently lose their history.
struct WalLayoutError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Write-ahead redo log. Lifecycle: construct over a directory,
/// optionally recover() into a Store, start() the drain thread, attach to
/// the Store (Store::attachWal) so committing transactions register
/// publish-window appends, stop() before teardown.
class Wal {
public:
  struct Config {
    std::string Dir; ///< Log directory (created if absent).
    /// Ignored: the log has one ring and one file whatever the store's
    /// shard count. Kept only because perfbench/Wire.cpp still assigns
    /// it; deleted with ServerConfig::Workers (ROADMAP item 3).
    uint32_t Shards = 16;
    uint32_t RingSlots = 1u << 16;   ///< Ring capacity (power of two).
    uint32_t FlushIntervalUs = 1000; ///< Group-commit window (idle bound).
  };

  explicit Wal(const Config &C);
  ~Wal(); // Stops (final drain + fsync) if still running.

  Wal(const Wal &) = delete;
  Wal &operator=(const Wal &) = delete;

  /// Scans the log, truncates a torn tail and any incomplete-group or
  /// beyond-hole suffix, and replays the maximal complete prefix of the
  /// commit order into \p S, records bucketed by Store::shardOf and the
  /// shards replayed in parallel (plain transactional insert/erase — call
  /// before attaching the Wal, so replay is not re-logged). Verifies the
  /// Store::reclaimStats identities afterward. Must run before start();
  /// records the cut so start() re-bases post-recovery appends at exactly
  /// cut + 1. Throws WalLayoutError if the directory holds old-layout
  /// shard-*.wal files.
  RecoveryStats recover(Store &S);

  /// Spawns the drain thread. append() may be called only between
  /// start() and stop().
  void start();

  /// Drains the ring, flushes, and joins the drain thread. Idempotent.
  void stop();

  /// Commit-side append, called inside the publish window (unique
  /// committer). The transaction's durable LSN is BaseLsn + Ticket; it
  /// becomes visible to the drainer only once the transaction's last
  /// record (Index == Count-1) is in the ring, so a group is never
  /// fsync-acked half-appended. Spins (bounded by drainer progress) when
  /// the ring is full.
  void append(WalOp Op, Word Key, Word Val, uint64_t Ticket, uint32_t Index,
              uint32_t Count);

  /// Txn::PublishEntry trampoline: Ctx is the Wal, A is the op, B the
  /// key, C the value.
  static void publishHook(void *Ctx, uint64_t Ticket, uint32_t Index,
                          uint32_t Count, Word A, Word B, Word C);

  /// Blocks until every record with LSN <= \p Lsn is fsynced (the sync
  /// ack point). Kicks the drainer, so the wait is one group-commit
  /// cycle, not a flush-interval sleep. Returns DurabilityLost without
  /// further blocking once the WAL is degraded and the LSN is beyond
  /// the frozen durable cut.
  DurableWait waitDurable(uint64_t Lsn);

  /// Deadline variant: additionally gives up with DeadlineExceeded when
  /// \p Deadline passes first — a wedged or dying disk must not block a
  /// sync-mode network worker forever. DeadlineExceeded makes no claim
  /// either way about the record's eventual durability.
  DurableWait waitDurable(uint64_t Lsn,
                          std::chrono::steady_clock::time_point Deadline);

  /// Highest LSN known durable.
  uint64_t durableLsn() const {
    return DurableLsn.load(std::memory_order_acquire);
  }

  /// True once an I/O failure sealed the log (see file comment).
  bool degraded() const {
    return DegradedFlag.load(std::memory_order_acquire);
  }

  /// The LSN a given publish ticket logs (or logged) at: BaseLsn +
  /// ticket. Valid between start() and stop(). The checkpointer uses it
  /// to turn a pinned snapshot epoch into the checkpoint barrier LSN —
  /// exact because a snapshot pinned at epoch E sees precisely the
  /// commits with ticket <= E, i.e. the records with LSN <= lsnOfTicket(E).
  uint64_t lsnOfTicket(uint64_t Ticket) const { return BaseLsn + Ticket; }

  /// Log compaction: rewrites the file keeping only records with LSN >
  /// \p Barrier (a suffix: the file is LSN-ordered), streamed in bounded
  /// chunks, fsyncs the replacement and re-points the drain fd. Callable
  /// while the log is live (the checkpointer's thread); the bulk of the
  /// copy runs beside the drainer, and only the records it appended
  /// meanwhile are copied under the file lock. Requires the barrier to be
  /// durable already — if DurableLsn < Barrier (e.g. degraded), the
  /// rotation is skipped and 0 is returned. Returns bytes removed.
  uint64_t truncateBelow(uint64_t Barrier);

  /// Log directory (checkpoint files live alongside the log).
  const std::string &dir() const { return Cfg.Dir; }

  /// The LSN of the last append *this thread* performed (0 if none) —
  /// what a worker passes to waitDurable to ack its own write. Process-
  /// wide thread-local, deliberately: a thread talks to one Wal.
  static uint64_t lastAppendedLsn();

  WalStats stats() const;

  /// The log file of log directory \p Dir (tests and tooling).
  static std::string logFile(const std::string &Dir) {
    return Dir + "/redo.wal";
  }

private:
  void drainLoop();
  /// One drain cycle: snapshot the published LSN, write the ring's
  /// contents with one writev, fsync once, advance durability.
  void drainCycle();
  /// Seals the log after an I/O failure (degraded mode) and wakes every
  /// durability waiter so they observe DurabilityLost. Reads errno.
  void enterDegraded(const char *What, const std::string &Path);

  Config Cfg;
  std::unique_ptr<WalRecord[]> Ring;
  /// Producer cursor (publish window) and consumer cursor (drain thread),
  /// on separate cache lines.
  alignas(64) std::atomic<uint64_t> Head{0};
  alignas(64) std::atomic<uint64_t> Tail{0};
  int Fd = -1; ///< O_APPEND log fd (drain side and truncateBelow only).
  /// Serializes the drainer's write+fsync against truncateBelow's final
  /// copy and fd swap. Uncontended except during a rotation.
  std::mutex FileLock;

  /// Highest LSN of the durable history this log continues: 1 for a
  /// fresh/empty log (so the first record lands at LSN 2), the recovery
  /// cut after recover(). start() derives BaseLsn from it.
  uint64_t LastLsn = 1;

  /// LSN base, derived at start() as LastLsn - lastPublishTicket() (mod
  /// 2^64 — the subtraction may wrap; append's BaseLsn + Ticket unwraps
  /// it). Tickets consumed before start() — snapshot-mode recovery
  /// replay, pre-attach prepopulation, earlier runs in this process —
  /// are thereby absorbed, and the first logged commit lands exactly at
  /// LastLsn + 1. Contiguity from there needs every later ticket to be
  /// taken by a logging commit, which attachWal guarantees for store
  /// traffic (raw fast paths refuse while a log is attached).
  uint64_t BaseLsn = 0;

  /// Highest LSN whose transaction is fully ring-published. Monotone:
  /// stores happen only inside the serialized publish window.
  std::atomic<uint64_t> PublishedLsn{0};
  /// Highest LSN known fsynced.
  std::atomic<uint64_t> DurableLsn{0};

  std::mutex WaitMutex;              ///< Guards DurableLsn stores + both CVs.
  std::condition_variable DrainCv;   ///< Wakes the drainer early.
  std::condition_variable DurableCv; ///< Wakes waitDurable callers.
  uint32_t SyncWaitersPending = 0;

  std::thread Drainer;
  std::atomic<bool> Stopping{false};
  bool Started = false;

  std::atomic<bool> DegradedFlag{false};

  std::atomic<uint64_t> StatAppends{0};
  std::atomic<uint64_t> StatRingStalls{0};
  std::atomic<uint64_t> StatFsyncBatches{0};
  std::atomic<uint64_t> StatRecordsWritten{0};
  std::atomic<uint64_t> StatBytesWritten{0};
  std::atomic<uint64_t> StatDroppedRecords{0};
};

} // namespace kv
} // namespace satm

#endif // SATM_KV_WAL_H
