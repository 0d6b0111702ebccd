//===- kv/Store.h - SATM-KV: sharded STM-backed key-value store -*- C++ -*-===//
//
// Part of the SATM project, reproducing Shpeisman et al., PLDI 2007.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// SATM-KV: an in-memory sharded key-value store whose every piece of
/// shared state is an STM-managed object (rt::Heap), accessed through two
/// planes that the paper proves can coexist on one heap:
///
///  - the *transactional* plane: multi-key operations (snapshot multi-get,
///    read-modify-write batches, CAS, insert/erase) run as eager atomic
///    transactions (stm::Txn);
///  - the *non-transactional* plane: single-key GET and PUT-to-existing-key
///    run bare through the strong-atomicity isolation barriers
///    (stm::ntRead / stm::ntWrite) — no descriptor, no read set, no commit.
///
/// Layout (KVell-style flat per-shard index, but on managed objects):
/// each shard owns three objects — a Keys int-array (open addressing,
/// linear probing, slot holds key+1, 0 = empty), a Vals ref-array of
/// single-slot value objects, and a Meta counter object. Value objects are
/// allocated per insert (DEA-private until the transactional ref store
/// publishes them, §4). The *index* never shrinks — erase leaves the Keys
/// entry behind so the non-transactional GET's probe walks only
/// monotonically-growing state — but the value record is unlinked (Vals
/// slot nulled) and parked in a per-shard retire pool. A later insert
/// recycles a parked record once the Quiescence epoch has advanced past
/// its retirement and no snapshot pin predates it, so sustained
/// insert/erase churn runs in bounded memory instead of leaking a
/// tombstoned record per erase.
///
/// Why the two planes compose (the strong-atomicity argument, spelled out
/// in DESIGN.md §8): index mutations happen only inside transactions, which
/// hold the shard's Keys/Vals records Exclusive from first write to
/// commit/rollback; a non-transactional probe therefore either waits out
/// the mutation or sees none of it. Single-key GET/PUT touch exactly one
/// data slot of one value object through one barrier, which makes each of
/// them individually atomic and hence linearizable against committing
/// transactions.
///
//===----------------------------------------------------------------------===//

#ifndef SATM_KV_STORE_H
#define SATM_KV_STORE_H

#include "rt/Heap.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

namespace satm {
namespace stm {
class Txn;
}
namespace kv {

class Wal;
enum class WalOp : uint8_t;

using stm::Word;

/// Typed outcome of a budgeted transactional operation. The first four are
/// what the bool APIs already distinguished; the last two are overload
/// control: the operation gave up *without effects* because its retry
/// budget ran out or its deadline passed. Under contention an unbounded
/// retry loop converts overload into unbounded latency — a budgeted caller
/// converts it into an explicit shed instead.
enum class OpStatus : uint8_t {
  Ok,               ///< Committed with the requested effect.
  NotFound,         ///< Committed; the key was absent (or erased).
  Mismatch,         ///< Committed; CAS expectation failed.
  Full,             ///< Committed; the shard's probe sequence is exhausted.
  Overloaded,       ///< Aborted: attempt budget exhausted. No effects.
  DeadlineExceeded, ///< Aborted: deadline passed. No effects.
  DurabilityLost,   ///< Committed in memory, but the WAL is degraded and
                    ///< the sync-mode durability promise cannot be kept
                    ///< (kv/Wal.h degraded mode). Never produced by the
                    ///< store itself — the sync ack layer rewrites Ok
                    ///< into it when waitDurable reports the seal.
};

/// Display name (matches the enumerator).
const char *opStatusName(OpStatus S);

/// Retry/latency budget for one transactional operation. Default: no
/// limits (the bool APIs' behaviour). The budget is checked at the top of
/// each transaction attempt, so a transaction that started before the
/// deadline may commit slightly after it; what the budget bounds is the
/// number of *re-executions* an overloaded operation is allowed to burn.
/// A serial-irrevocable attempt (contention-manager escalation) is never
/// cut short: it cannot roll back, and it is the system's guarantee that
/// the operation finishes.
struct OpBudget {
  /// Transaction attempts allowed (0 = unlimited). 1 means try once and
  /// shed on the first conflict abort.
  uint32_t MaxAttempts = 0;
  /// Give-up point (steady clock; default-constructed = none).
  std::chrono::steady_clock::time_point Deadline{};

  static OpBudget attempts(uint32_t N) {
    OpBudget B;
    B.MaxAttempts = N;
    return B;
  }
  static OpBudget deadlineIn(std::chrono::nanoseconds D) {
    OpBudget B;
    B.Deadline = std::chrono::steady_clock::now() + D;
    return B;
  }
};

/// Store shape. Both counts are rounded up to powers of two. Capacity is
/// fixed for the store's lifetime (no rehash): like KVell's in-memory
/// indexes, SATM-KV sizes the table for the key population up front, and
/// insert() reports failure when a shard fills past its probe bound.
struct StoreConfig {
  uint32_t Shards = 16;
  uint32_t CapacityPerShard = 1024;
};

/// SplitMix64 finalizer: the store's key hash. Shard routing uses the high
/// bits and slot probing the low bits, so a shard's resident keys do not
/// cluster inside its table.
inline uint64_t hashKey(Word Key) {
  uint64_t Z = Key + 0x9e3779b97f4a7c15ull;
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
  return Z ^ (Z >> 31);
}

class Store {
public:
  /// Absent/deleted marker. Values equal to Tombstone cannot be stored;
  /// multiGet writes it into output slots of missing keys.
  static constexpr Word Tombstone = ~Word(0);

  /// Builds the shard index objects in \p H. The structural objects are
  /// born Shared (they are reachable by every worker from the start);
  /// value objects later follow stm::config().birthState() so the DEA
  /// regimes exercise publication on insert.
  Store(rt::Heap &H, const StoreConfig &C);

  uint32_t shards() const { return uint32_t(Reps.size()); }
  uint32_t capacityPerShard() const { return Capacity; }

  uint32_t shardOf(Word Key) const {
    return uint32_t((hashKey(Key) >> 32) & (Reps.size() - 1));
  }

  /// First probe slot for \p Key in a table of \p Capacity slots.
  static uint32_t probeStart(Word Key, uint32_t Capacity) {
    return uint32_t(hashKey(Key) & (Capacity - 1));
  }

  //===--------------------------------------------------------------------===
  // Non-transactional plane (isolation barriers; single-key fast paths).
  //===--------------------------------------------------------------------===

  /// Single-key read: probes the shard index and reads the value slot, all
  /// through ntRead. Returns false if the key was never inserted or is
  /// erased.
  bool get(Word Key, Word &Out) const;

  /// Single-key overwrite of an *existing* key: one ntWrite into the value
  /// object. Returns false (and writes nothing) if the key has no index
  /// entry yet — the caller must take the transactional insert path.
  /// Writing over an erased key resurrects it, which is the natural upsert
  /// reading of PUT. \p Val must not be Tombstone.
  bool putFast(Word Key, Word Val);

  /// PUT: the fast path when the index entry exists, else a transactional
  /// insert. Returns false only if the shard is full.
  bool put(Word Key, Word Val);

  //===--------------------------------------------------------------------===
  // Transactional plane (atomic multi-key operations).
  //===--------------------------------------------------------------------===

  /// Inserts or overwrites \p Key atomically. Allocates the value object
  /// inside the transaction (private until the ref store publishes it).
  /// Returns false iff the shard's probe sequence is exhausted (full).
  bool insert(Word Key, Word Val);

  /// Atomically unlinks the key's value record (the index entry stays, so
  /// probe chains never shrink) and parks the record for recycling once
  /// the system has quiesced past the erase. Returns false if the key is
  /// absent (no entry, or already erased).
  bool erase(Word Key);

  /// Atomic compare-and-swap on one key's value. Returns true iff the key
  /// was present with \p Expected and now holds \p Desired.
  bool cas(Word Key, Word Expected, Word Desired);

  /// Atomic snapshot read of \p N keys: every value in \p Out is from one
  /// serialization point. Missing keys read as Tombstone. Returns the
  /// number of keys found.
  size_t multiGet(const Word *Keys, size_t N, Word *Out) const;

  //===--------------------------------------------------------------------===
  // Snapshot plane (multi-version wait-free reads, DESIGN.md §10). Requires
  // Config::SnapshotEnabled. Reads come from the pinned stable epoch's
  // version records: no validation, no aborts, no ownership-record CASes,
  // and no retries regardless of concurrent committers. Values written only
  // through the non-transactional plane (putFast) are read in place and are
  // not ordered against the snapshot epoch — the plane's documented nt
  // caveat (stm/Snapshot.h).
  //===--------------------------------------------------------------------===

  /// Wait-free single-key snapshot read. Returns false if the key is
  /// absent or erased as of the pinned epoch.
  bool snapshotGet(Word Key, Word &Out) const;

  /// Wait-free snapshot multi-get: all \p N values from one pinned epoch.
  /// Missing keys read as Tombstone. Returns the number of keys found.
  size_t snapshotMultiGet(const Word *Keys, size_t N, Word *Out) const;

  /// Full-store snapshot scan for the checkpoint plane (kv/Checkpoint.h):
  /// one snapshot region walks every index slot of every shard and calls
  /// \p Visit(key, value) for each key live in the index as of the single
  /// pinned epoch — erased keys are reported with value Tombstone, so a
  /// checkpoint can record the erasure rather than silently resurrect a
  /// prepopulated baseline value at recovery. Returns the pinned epoch
  /// (publish ticket) the scan read at; together with Wal::lsnOfTicket
  /// that makes the scan an exact prefix of the redo log.
  uint64_t snapshotScan(const std::function<void(Word, Word)> &Visit) const;

  /// Atomic read-modify-write batch: loads all \p N values, lets \p Mutate
  /// rewrite them in place, stores them back — one transaction. Returns
  /// false (no effects) if any key is missing. \p Mutate may run several
  /// times (transaction re-execution) and must be side-effect-free.
  bool readModifyWrite(const Word *Keys, size_t N,
                       const std::function<void(Word *Vals, size_t N)> &Mutate);

  /// readModifyWrite adding \p Delta to every value (two's-complement, so
  /// negative deltas work).
  bool rmwAdd(const Word *Keys, size_t N, Word Delta);

  //===--------------------------------------------------------------------===
  // Budgeted transactional plane (overload control). Each operation is the
  // same transaction as its bool twin, but gives up with Overloaded /
  // DeadlineExceeded — atomically, with no partial effects — when \p B runs
  // out. The bool APIs are unlimited-budget wrappers over these.
  //===--------------------------------------------------------------------===

  OpStatus insert(Word Key, Word Val, const OpBudget &B);

  /// Batched upsert: one transaction inserting or overwriting all \p N
  /// keys — the amortization the network front end's per-shard request
  /// batching rides on (one commit, one publish ticket, one WAL group
  /// for N queued PUTs). On Ok, \p PerKey[i] is Ok or Full per key (a
  /// Full key is skipped; the rest still commit). Unlike single insert,
  /// the batch path never harvests the retire pools — a caller that sees
  /// Full on a tombstone-saturated shard retries that key through
  /// insert(), which recycles. Overloaded/DeadlineExceeded shed the
  /// whole batch with no effects.
  OpStatus multiPut(const Word *Keys, const Word *Vals, size_t N,
                    OpStatus *PerKey, const OpBudget &B = OpBudget{});

  OpStatus erase(Word Key, const OpBudget &B);
  OpStatus cas(Word Key, Word Expected, Word Desired, const OpBudget &B);
  /// \p Found (optional) receives the number of present keys on Ok.
  OpStatus multiGet(const Word *Keys, size_t N, Word *Out, const OpBudget &B,
                    size_t *Found = nullptr) const;
  OpStatus readModifyWrite(
      const Word *Keys, size_t N,
      const std::function<void(Word *Vals, size_t N)> &Mutate,
      const OpBudget &B);
  OpStatus rmwAdd(const Word *Keys, size_t N, Word Delta, const OpBudget &B);

  //===--------------------------------------------------------------------===
  // Introspection.
  //===--------------------------------------------------------------------===

  /// Resident index entries (keys ever inserted; erase leaves a tombstoned
  /// entry behind, so this never decreases), read per shard through ntRead.
  /// Exact only while no mutating operation is in flight.
  uint64_t size() const;

  /// The value object currently indexed under \p Key, or null (missing or
  /// erased). Test/model plumbing — production code reads through get().
  rt::Object *valueObjectFor(Word Key) const;

  /// Value-record lifecycle counters (memory-flatness tests). Live records
  /// = Allocated (records are recycled through the pools, never freed), so
  /// flat memory under churn shows up as Allocated plateauing while
  /// Retired/Recycled keep climbing.
  struct ReclaimStats {
    uint64_t Allocated; ///< Fresh value-record allocations (monotone).
    uint64_t Retired;   ///< Records parked by erase, or left unlinked by
                        ///< an insert's or multiPut's aborted attempt
                        ///< (monotone).
    uint64_t Recycled;  ///< Parked records reused by insert (monotone).
    uint64_t PoolSize;  ///< Records currently parked across all shards.
  };
  ReclaimStats reclaimStats() const;

  //===--------------------------------------------------------------------===
  // Durability plane (kv/Wal.h, DESIGN.md §12).
  //===--------------------------------------------------------------------===

  /// Attaches \p W: from here on every committing mutation registers a
  /// publish-window redo append, and the raw single-key fast path
  /// (putFast) refuses so all writes take the logged transactional
  /// path. Pass null to detach. The caller sequences this
  /// against in-flight operations (attach before workers start, detach
  /// after they join) and must have start()ed the Wal first.
  void attachWal(Wal *W) { DurableLog = W; }
  Wal *wal() const { return DurableLog; }

private:
  struct ShardRep {
    rt::Object *Keys; ///< Int array: key+1 per slot, 0 = empty.
    rt::Object *Vals; ///< Ref array: value objects, parallel to Keys.
    rt::Object *Meta; ///< Slot 0: live-key count.
  };

  /// One erased value record awaiting recycling, with the reclamation
  /// horizon recorded at the unlinking commit: the record may be reused
  /// only after the global epoch has advanced past RetireEpoch (every
  /// transaction that could still hold a stale reference has since
  /// validated or finished) and no snapshot pin is older than RetireStable
  /// (no pinned reader predates the unlink).
  struct RetiredRecord {
    rt::Object *V;
    uint32_t Slot; ///< Index slot the record was unlinked from (the
                   ///< tombstoned entry a saturated insert may recycle),
                   ///< or NoSlot for a record that was never linked.
    uint64_t RetireEpoch;
    uint64_t RetireStable;
  };
  static constexpr uint32_t NoSlot = ~0u;

  /// Per-shard retire pool. Mutex-guarded: erase commits and insert
  /// harvests are rare next to the lock-free read/write planes, and the
  /// pool is per shard, so the lock never sees cross-shard contention.
  struct ShardPool {
    std::mutex Mutex;
    std::deque<RetiredRecord> Queue;
  };

  /// Parks \p V (unlinked from index slot \p Slot) in \p Shard's pool,
  /// stamped with the current horizon.
  void pushRetired(uint32_t Shard, rt::Object *V, uint32_t Slot);

  /// Pops the oldest parked record whose horizon has passed into \p Out
  /// (record + its tombstoned slot); false if none is ripe. On an
  /// epoch-blocked head, nudges the global epoch forward once so the
  /// next harvest succeeds (epochs stall when QuiesceOnCommit is off).
  bool popRecycled(uint32_t Shard, RetiredRecord &Out);

  /// Registers a publish-window redo append for the committing operation
  /// when a Wal is attached; no-op (one predicted branch) otherwise.
  void logRedo(stm::Txn &Tx, WalOp Op, Word Key, Word Val);

  /// Probe under transaction \p Tx (passed in so the per-key hot loops pay
  /// no thread-local descriptor lookup); returns the slot holding \p Key
  /// or -1. \p FirstFree receives the first empty slot (insert target) or
  /// -1 when the probe wrapped without finding one.
  int findSlotTxn(stm::Txn &Tx, const ShardRep &S, Word Key,
                  int *FirstFree) const;

  rt::Heap &H;
  uint32_t Capacity;
  std::vector<ShardRep> Reps;
  std::vector<std::unique_ptr<ShardPool>> Pools;
  std::atomic<uint64_t> ValueAllocated{0};
  std::atomic<uint64_t> ValueRetired{0};
  std::atomic<uint64_t> ValueRecycled{0};
  Wal *DurableLog = nullptr;
};

} // namespace kv
} // namespace satm

#endif // SATM_KV_STORE_H
