//===- kv/Wal.cpp - SATM-KV durability plane implementation --------------===//
//
// Part of the SATM project, reproducing Shpeisman et al., PLDI 2007.
//
//===----------------------------------------------------------------------===//

#include "kv/Wal.h"

#include "kv/Checkpoint.h"
#include "kv/Store.h"
#include "stm/Quiesce.h"
#include "support/Backoff.h"
#include "support/FaultInjector.h"
#include "support/Stopwatch.h"

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <vector>

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/uio.h>
#include <unistd.h>

using namespace satm;
using namespace satm::kv;

const char *satm::kv::durabilityModeName(DurabilityMode M) {
  switch (M) {
  case DurabilityMode::Off:
    return "off";
  case DurabilityMode::Async:
    return "async";
  case DurabilityMode::Sync:
    return "sync";
  }
  return "?";
}

bool satm::kv::parseDurabilityMode(const char *S, DurabilityMode &Out) {
  if (!S)
    return false;
  if (std::strcmp(S, "off") == 0)
    Out = DurabilityMode::Off;
  else if (std::strcmp(S, "async") == 0)
    Out = DurabilityMode::Async;
  else if (std::strcmp(S, "sync") == 0)
    Out = DurabilityMode::Sync;
  else
    return false;
  return true;
}

uint64_t WalRecord::checksum() const {
  // SplitMix64-style finalize over a running combine, seeded so the
  // all-zero record (a zero-filled torn tail) never validates.
  uint64_t H = 0x5a71db14b816f5c3ull;
  const uint64_t W[4] = {Lsn, Meta, Key, Val};
  for (uint64_t X : W) {
    H ^= X + 0x9e3779b97f4a7c15ull + (H << 6) + (H >> 2);
    H = (H ^ (H >> 30)) * 0xbf58476d1ce4e5b9ull;
  }
  return H ^ (H >> 31);
}

namespace {

/// Per-thread LSN of the last append, for sync-mode acks.
thread_local uint64_t TlsLastAppendedLsn = 0;

void ioFatal(const char *What, const std::string &Path) {
  std::fprintf(stderr, "satm: wal %s failed for '%s': %s\n", What,
               Path.c_str(), std::strerror(errno));
  std::abort();
}

void fsyncDir(const std::string &Dir) {
  int DirFd = ::open(Dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (DirFd >= 0) {
    ::fsync(DirFd);
    ::close(DirFd);
  }
}

/// Writes \p Iov[0..N) fully, resuming after short writes and EINTR.
/// Returns the bytes written, short only on an error (errno set).
size_t writeAll(int Fd, iovec *Iov, int N) {
  size_t Done = 0;
  while (N > 0) {
    ssize_t W = ::writev(Fd, Iov, N);
    if (W < 0 && errno == EINTR)
      continue;
    if (W <= 0)
      break;
    Done += size_t(W);
    size_t Left = size_t(W);
    for (; N > 0 && Left >= Iov->iov_len; --N, ++Iov)
      Left -= Iov->iov_len;
    if (N > 0) {
      Iov->iov_base = static_cast<char *>(Iov->iov_base) + Left;
      Iov->iov_len -= Left;
    }
  }
  return Done;
}

} // namespace

uint64_t Wal::lastAppendedLsn() { return TlsLastAppendedLsn; }

Wal::Wal(const Config &C) : Cfg(C) {
  assert((Cfg.RingSlots & (Cfg.RingSlots - 1)) == 0 && "ring is power of two");
  std::error_code Ec;
  std::filesystem::create_directories(Cfg.Dir, Ec); // Pre-existing is fine.
  Ring = std::make_unique<WalRecord[]>(Cfg.RingSlots);
}

Wal::~Wal() {
  stop();
  if (Fd >= 0)
    ::close(Fd);
}

void Wal::start() {
  assert(!Started && "wal already started");
  if (Fd < 0) {
    Fd = ::open(logFile(Cfg.Dir).c_str(), O_CREAT | O_WRONLY | O_APPEND, 0644);
    if (Fd < 0)
      ioFatal("open", logFile(Cfg.Dir));
  }
  // Persist the directory entry once, so a crash right after start cannot
  // lose the (empty) log file itself.
  fsyncDir(Cfg.Dir);
  // A restart of the same instance continues past everything it already
  // published (the ring is empty here: stop() drained it).
  LastLsn = std::max(LastLsn, PublishedLsn.load(std::memory_order_relaxed));
  // Derive the LSN base from the *live* ticket counter, not from an
  // assumed fresh-process value: recovery replay under SnapshotEnabled,
  // pre-attach prepopulation, and earlier runs in this process all
  // consume publish tickets, and recovery's contiguity check needs the
  // first logged commit to land at exactly LastLsn + 1. Unsigned
  // wrap-around in the subtraction is fine — append computes BaseLsn +
  // Ticket, which unwraps it.
  BaseLsn = LastLsn - stm::Quiescence::lastPublishTicket();
  PublishedLsn.store(LastLsn, std::memory_order_relaxed);
  DurableLsn.store(LastLsn, std::memory_order_relaxed);
  Stopping.store(false, std::memory_order_relaxed);
  Started = true;
  Drainer = std::thread([this] { drainLoop(); });
}

void Wal::stop() {
  if (!Started)
    return;
  {
    std::lock_guard<std::mutex> Lock(WaitMutex);
    Stopping.store(true, std::memory_order_release);
  }
  DrainCv.notify_all();
  Drainer.join();
  Started = false;
}

//===----------------------------------------------------------------------===
// Commit side (publish window).
//===----------------------------------------------------------------------===

void Wal::append(WalOp Op, Word Key, Word Val, uint64_t Ticket,
                 uint32_t Index, uint32_t Count) {
  assert(Started && "append on a stopped wal");
  if (faultPoint(FaultSite::LogAppend))
    faultSpin(FaultInjector::arg(FaultSite::LogAppend));
  const uint64_t Lsn = BaseLsn + Ticket;
  if (DegradedFlag.load(std::memory_order_acquire)) {
    // Sealed log: commits keep flowing, but feeding the ring would only
    // queue records no drainer will ever make durable. Keep the LSN
    // bookkeeping honest (PublishedLsn stays monotone for a later
    // stop()/start(); the per-thread LSN still routes the committer to
    // waitDurable, which reports the loss) and count the drop.
    StatAppends.fetch_add(1, std::memory_order_relaxed);
    StatDroppedRecords.fetch_add(1, std::memory_order_relaxed);
    TlsLastAppendedLsn = Lsn;
    if (Index + 1 == Count)
      PublishedLsn.store(Lsn, std::memory_order_release);
    return;
  }
  const uint32_t Mask = Cfg.RingSlots - 1;
  uint64_t H = Head.load(std::memory_order_relaxed);
  // Backpressure: wait for the drainer, never overwrite. This is the one
  // blocking wait allowed in the publish window — it is on an I/O thread
  // that holds no publish ticket and no STM state, so it cannot close a
  // wait cycle through the publish order (see Wal.h).
  if (H - Tail.load(std::memory_order_acquire) >= Cfg.RingSlots) {
    StatRingStalls.fetch_add(1, std::memory_order_relaxed);
    DrainCv.notify_one();
    Backoff B;
    while (H - Tail.load(std::memory_order_acquire) >= Cfg.RingSlots)
      B.pause();
  }
  WalRecord &Rec = Ring[H & Mask];
  Rec.Lsn = Lsn;
  Rec.Meta = WalRecord::packMeta(Op, Index, Count);
  Rec.Key = Key;
  Rec.Val = Val;
  Rec.Check = Rec.checksum();
  Head.store(H + 1, std::memory_order_release);
  StatAppends.fetch_add(1, std::memory_order_relaxed);
  TlsLastAppendedLsn = Lsn;
  // The group becomes drainable only once its last record is in the ring:
  // a drain cut at this LSN must never fsync-ack a half-appended
  // transaction (waitDurable would then ack a write recovery drops).
  if (Index + 1 == Count)
    PublishedLsn.store(Lsn, std::memory_order_release);
}

void Wal::publishHook(void *Ctx, uint64_t Ticket, uint32_t Index,
                      uint32_t Count, Word A, Word B, Word C) {
  static_cast<Wal *>(Ctx)->append(WalOp(A), B, C, Ticket, Index, Count);
}

//===----------------------------------------------------------------------===
// Drain side (group commit).
//===----------------------------------------------------------------------===

void Wal::drainLoop() {
  for (;;) {
    {
      std::unique_lock<std::mutex> Lock(WaitMutex);
      DrainCv.wait_for(Lock, std::chrono::microseconds(Cfg.FlushIntervalUs),
                       [&] {
                         return Stopping.load(std::memory_order_acquire) ||
                                SyncWaitersPending > 0;
                       });
    }
    bool Last = Stopping.load(std::memory_order_acquire);
    drainCycle();
    if (Last)
      return; // Final cycle ran after Stopping was visible: ring empty.
  }
}

void Wal::drainCycle() {
  // The cut is read *before* draining: every record with LSN <= Cut was
  // fully ring-published at that moment (PublishedLsn advances only after
  // a transaction's last record, and the publish window serializes
  // groups), so emptying the ring below captures all of them.
  const uint64_t Cut = PublishedLsn.load(std::memory_order_acquire);
  bool Degraded = DegradedFlag.load(std::memory_order_acquire);
  const uint64_t T = Tail.load(std::memory_order_relaxed);
  const uint64_t H = Head.load(std::memory_order_acquire);
  if (T != H) {
    const uint64_t Bytes = (H - T) * sizeof(WalRecord);
    uint64_t Written = 0;
    // Injected disk-full: the write fails as if write(2) returned ENOSPC.
    // Real write errors take the same path — degrade, not abort.
    if (!Degraded && faultPoint(FaultSite::LogEnospc)) {
      errno = ENOSPC;
      enterDegraded("write", logFile(Cfg.Dir));
      Degraded = true;
    }
    // Degraded: keep consuming (producers must never stall on a ring no
    // one will drain) but discard — the log is sealed and these records
    // will never be fsync-acked.
    if (!Degraded) {
      // The unconsumed records are at most two contiguous ring spans,
      // written in place: the producer cannot reuse a slot before Tail
      // moves past it below.
      const uint64_t First = T & (Cfg.RingSlots - 1);
      const uint64_t FirstBytes = std::min<uint64_t>(
          Bytes, (Cfg.RingSlots - First) * sizeof(WalRecord));
      iovec Iov[2] = {{&Ring[First], FirstBytes},
                      {&Ring[0], Bytes - FirstBytes}};
      std::lock_guard<std::mutex> FLock(FileLock);
      Written = writeAll(Fd, Iov, Bytes > FirstBytes ? 2 : 1);
      if (Written < Bytes) {
        enterDegraded("write", logFile(Cfg.Dir));
        Degraded = true;
      } else {
        // Group commit: one fsync covers every record that accumulated
        // since the previous cycle.
        if (faultPoint(FaultSite::LogFsync))
          faultSpin(FaultInjector::arg(FaultSite::LogFsync));
        if (::fsync(Fd) < 0) {
          enterDegraded("fsync", logFile(Cfg.Dir));
          Degraded = true;
        } else {
          StatFsyncBatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
    Tail.store(H, std::memory_order_release);
    const uint64_t WholeRecords = Written / sizeof(WalRecord);
    StatRecordsWritten.fetch_add(WholeRecords, std::memory_order_relaxed);
    StatBytesWritten.fetch_add(Written, std::memory_order_relaxed);
    if (Written < Bytes)
      StatDroppedRecords.fetch_add(H - T - WholeRecords,
                                   std::memory_order_relaxed);
  }
  // Advance durability to the cut — even on an idle cycle (an empty ring
  // means every record up to Cut was written and fsynced by an earlier
  // cycle). Never while degraded: a failed write or fsync means Cut was
  // not honestly reached, and DurableLsn stays frozen at the last cut
  // that was.
  if (!Degraded && Cut > DurableLsn.load(std::memory_order_relaxed)) {
    std::lock_guard<std::mutex> Lock(WaitMutex);
    DurableLsn.store(Cut, std::memory_order_release);
  }
  DurableCv.notify_all();
}

void Wal::enterDegraded(const char *What, const std::string &Path) {
  bool Expected = false;
  if (DegradedFlag.compare_exchange_strong(Expected, true,
                                           std::memory_order_acq_rel)) {
    std::fprintf(stderr,
                 "satm: wal %s failed for '%s': %s — sealing the log "
                 "(degraded mode, durable cut frozen at LSN %llu)\n",
                 What, Path.c_str(), std::strerror(errno),
                 (unsigned long long)DurableLsn.load(
                     std::memory_order_acquire));
  }
  // Every parked sync waiter must observe the seal and report
  // DurabilityLost instead of blocking on an LSN that will never come.
  // Passing through the waiters' mutex orders the flag before any
  // predicate check still to come, so no waiter sleeps through this.
  { std::lock_guard<std::mutex> Lock(WaitMutex); }
  DurableCv.notify_all();
}

DurableWait Wal::waitDurable(uint64_t Lsn) {
  return waitDurable(Lsn, std::chrono::steady_clock::time_point::max());
}

DurableWait Wal::waitDurable(uint64_t Lsn,
                             std::chrono::steady_clock::time_point Deadline) {
  if (DurableLsn.load(std::memory_order_acquire) >= Lsn)
    return DurableWait::Ok;
  if (DegradedFlag.load(std::memory_order_acquire))
    return DurableWait::DurabilityLost;
  std::unique_lock<std::mutex> Lock(WaitMutex);
  ++SyncWaitersPending;
  DrainCv.notify_all(); // Kick an immediate group-commit cycle.
  auto Reached = [&] {
    return DurableLsn.load(std::memory_order_acquire) >= Lsn ||
           DegradedFlag.load(std::memory_order_acquire);
  };
  if (Deadline == std::chrono::steady_clock::time_point::max())
    DurableCv.wait(Lock, Reached);
  else
    DurableCv.wait_until(Lock, Deadline, Reached);
  --SyncWaitersPending;
  // Durability beats the other verdicts: even a degraded log honestly
  // holds every record at or below the frozen cut.
  if (DurableLsn.load(std::memory_order_acquire) >= Lsn)
    return DurableWait::Ok;
  if (DegradedFlag.load(std::memory_order_acquire))
    return DurableWait::DurabilityLost;
  return DurableWait::DeadlineExceeded;
}

WalStats Wal::stats() const {
  WalStats S;
  S.RecordsAppended = StatAppends.load(std::memory_order_relaxed);
  S.RingStalls = StatRingStalls.load(std::memory_order_relaxed);
  S.FsyncBatches = StatFsyncBatches.load(std::memory_order_relaxed);
  S.RecordsWritten = StatRecordsWritten.load(std::memory_order_relaxed);
  S.BytesWritten = StatBytesWritten.load(std::memory_order_relaxed);
  S.DroppedRecords = StatDroppedRecords.load(std::memory_order_relaxed);
  S.Degraded = DegradedFlag.load(std::memory_order_acquire);
  return S;
}

//===----------------------------------------------------------------------===
// Compaction (checkpoint barrier rotation).
//===----------------------------------------------------------------------===

namespace {

/// Copies the records of \p In's byte range [From, To) whose LSN exceeds
/// \p Barrier to \p Out, through a bounded buffer. The log is LSN-ordered,
/// so the records skipped are a prefix of the range; \p Skipped grows by
/// their bytes. False on an I/O error.
bool copyAbove(int In, uint64_t From, uint64_t To, uint64_t Barrier, int Out,
               uint64_t &Skipped) {
  constexpr size_t ChunkRecords = 1024;
  std::unique_ptr<WalRecord[]> Buf(new WalRecord[ChunkRecords]);
  while (From < To) {
    size_t Want = size_t(std::min<uint64_t>(To - From,
                                            ChunkRecords * sizeof(WalRecord)));
    ssize_t N = ::pread(In, Buf.get(), Want, off_t(From));
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0 || size_t(N) % sizeof(WalRecord) != 0)
      return false;
    size_t Recs = size_t(N) / sizeof(WalRecord), Keep = 0;
    while (Keep < Recs && Buf[Keep].Lsn <= Barrier)
      ++Keep;
    Skipped += Keep * sizeof(WalRecord);
    iovec Iov{&Buf[Keep], (Recs - Keep) * sizeof(WalRecord)};
    const size_t Len = Iov.iov_len;
    if (Len && writeAll(Out, &Iov, 1) != Len)
      return false;
    From += uint64_t(N);
  }
  return true;
}

uint64_t fileSize(int Fd) {
  struct stat St;
  return ::fstat(Fd, &St) == 0 ? uint64_t(St.st_size) : 0;
}

} // namespace

uint64_t Wal::truncateBelow(uint64_t Barrier) {
  assert(Started && "truncateBelow serves the live checkpointer");
  // Only durable prefixes may be dropped: a record still in the ring (or
  // never fsynced at all) below the barrier would otherwise vanish from
  // both the log and the next recovery. A degraded log skips rotation
  // entirely — its file is frozen evidence.
  if (DegradedFlag.load(std::memory_order_acquire) ||
      DurableLsn.load(std::memory_order_acquire) < Barrier)
    return 0;
  const std::string Path = logFile(Cfg.Dir), Tmp = Path + ".tmp";
  int In = ::open(Path.c_str(), O_RDONLY);
  if (In < 0)
    return 0;
  WalRecord First;
  if (::pread(In, &First, sizeof(First), 0) != ssize_t(sizeof(First)) ||
      First.Lsn > Barrier) {
    ::close(In);
    return 0; // Nothing at or below the barrier to drop.
  }
  // Write-temp → fsync → rename-over → reopen the append fd on the new
  // inode. Any failure abandons the rotation (the old file and fd stay
  // authoritative) — except a post-rename reopen failure, which would
  // silently route appends to a dead inode and so seals the log instead.
  int Out = ::open(Tmp.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  if (Out < 0) {
    ::close(In);
    return 0;
  }
  // Bulk copy beside the drainer: it only appends whole records, so every
  // record below the size seen now is final. Records at or below the
  // barrier were fsynced before this call, so they all lie below it.
  uint64_t Removed = 0;
  const uint64_t Bulk = fileSize(In) / sizeof(WalRecord) * sizeof(WalRecord);
  bool Ok = copyAbove(In, 0, Bulk, Barrier, Out, Removed) &&
            ::fdatasync(Out) == 0;
  bool Rotated = false;
  if (Ok) {
    // Under the file lock, copy what the drainer appended meanwhile and
    // swap files. The log is record-aligned here unless a failed write
    // sealed it, which the degraded re-check excludes.
    std::lock_guard<std::mutex> FLock(FileLock);
    Ok = !DegradedFlag.load(std::memory_order_acquire) &&
         copyAbove(In, Bulk, fileSize(In), Barrier, Out, Removed) &&
         ::fsync(Out) == 0;
    ::close(Out);
    Out = -1;
    if (Ok && ::rename(Tmp.c_str(), Path.c_str()) == 0) {
      int NFd = ::open(Path.c_str(), O_WRONLY | O_APPEND);
      if (NFd < 0) {
        enterDegraded("reopen", Path);
        Removed = 0;
      } else {
        ::close(Fd);
        Fd = NFd;
        Rotated = true;
      }
    }
  }
  if (Out >= 0)
    ::close(Out);
  ::close(In);
  if (!Rotated) {
    ::unlink(Tmp.c_str());
    return 0;
  }
  fsyncDir(Cfg.Dir);
  return Removed;
}

//===----------------------------------------------------------------------===
// Recovery.
//===----------------------------------------------------------------------===

RecoveryStats Wal::recover(Store &S) {
  assert(!Started && "recover must run before start()");
  std::error_code Ec;
  for (const auto &E : std::filesystem::directory_iterator(Cfg.Dir, Ec)) {
    const std::string Name = E.path().filename().string();
    if (Name.rfind("shard-", 0) == 0 && E.path().extension() == ".wal")
      throw WalLayoutError("wal directory '" + Cfg.Dir + "' holds '" + Name +
                           "', a per-shard log of the older layout that "
                           "this recovery cannot read");
  }
  Stopwatch Timer;
  RecoveryStats Out;
  // Phase 0: load the newest *valid* checkpoint in the directory and
  // apply its image — the bounded-recovery baseline. A corrupt newest
  // checkpoint falls back to the older retained one (whose WAL suffix
  // the two-generation retention rule kept on disk), and to empty when
  // none validates; the scan below then simply replays from further
  // back. Erased keys arrive as Tombstone entries and must override
  // whatever baseline the caller prepopulated.
  ckpt::CheckpointImage Img;
  ckpt::LoadResult Lr = ckpt::loadNewestValid(Cfg.Dir, Img);
  Out.CheckpointLsn = Img.Lsn;
  Out.CheckpointsDiscarded = Lr.Discarded;
  if (Lr.Loaded) {
    for (const auto &E : Img.Entries) {
      if (E.second == Store::Tombstone) {
        S.erase(E.first); // Absent is fine: erased before it ever
                          // reached this baseline.
      } else if (!S.insert(E.first, E.second)) {
        ++Out.ApplyFailures;
      }
    }
    Out.CheckpointEntries = Img.Entries.size();
    Out.CutLsn = Img.Lsn; // An empty WAL suffix still recovers to here.
  }
  // Phase 1: one validated sequential scan. Records at or below the
  // checkpoint barrier are covered by the image and may legitimately
  // linger (a crash between checkpoint publication and rotation): they
  // are kept on disk but not replayed. Above it, the scan stops at
  //  - the first torn or corrupt record: a short tail, a checksum
  //    failure (bit-flip or zero-fill), or an (Lsn, Index) that does not
  //    advance (a duplicated tail) — never replayed;
  //  - an LSN hole: contiguity is demanded from barrier + 1 (from 2
  //    without a checkpoint), so a swallowed commit, including the
  //    first, cuts the replay before it instead of replaying past it;
  //  - a group whose members are not index 0, 1, ... of one span.
  // The replay cut is the last group completed before the stop; a
  // final incomplete group (the crash landed mid-write) is dropped whole.
  // Complete groups go into per-shard buckets for phase 2.
  const uint64_t Anchor = std::max<uint64_t>(Img.Lsn, 1);
  std::vector<std::vector<WalRecord>> Buckets(S.shards());
  std::vector<WalRecord> Group; // The open transaction group.
  uint64_t KeepBytes = 0, FileBytes = 0;
  if (FILE *F = std::fopen(logFile(Cfg.Dir).c_str(), "rb")) {
    WalRecord Rec, Prev{};
    uint64_t Pos = 0;
    for (;;) {
      size_t N = std::fread(&Rec, 1, sizeof(Rec), F);
      if (N < sizeof(Rec) || Rec.Check != Rec.checksum() ||
          (Pos && (Rec.Lsn < Prev.Lsn || (Rec.Lsn == Prev.Lsn &&
                                           Rec.index() <= Prev.index())))) {
        Out.TornRecords += N != 0;
        break;
      }
      // Injected recovery fault: abandon the rest of the log as if the
      // scan hit a torn record (kill mode turns this into a crash during
      // recovery — double-crash testing).
      if (faultPoint(FaultSite::RecoveryReplay)) {
        faultSpin(FaultInjector::arg(FaultSite::RecoveryReplay));
        break;
      }
      ++Out.RecordsScanned;
      Pos += sizeof(Rec);
      Prev = Rec;
      if (Rec.Lsn <= Anchor) {
        KeepBytes = Pos;
        continue;
      }
      if (Group.empty() && Rec.Lsn != std::max(Out.CutLsn, Anchor) + 1)
        break; // Hole: a lost commit hides in the gap.
      if (!Group.empty() && Rec.Lsn != Group[0].Lsn)
        break; // The open group ended short.
      if (Rec.index() != Group.size() ||
          (!Group.empty() && Rec.span() != Group[0].span()))
        break; // Incoherent group.
      Group.push_back(Rec);
      if (Group.size() < Rec.span())
        continue;
      for (const WalRecord &G : Group)
        Buckets[S.shardOf(G.Key)].push_back(G);
      Out.RecordsReplayed += Group.size();
      ++Out.TxnsReplayed;
      Out.CutLsn = Rec.Lsn;
      KeepBytes = Pos;
      Group.clear();
    }
    std::fseek(F, 0, SEEK_END);
    FileBytes = uint64_t(std::ftell(F));
    std::fclose(F);
  }
  // Phase 2: shard-parallel replay. Records of one shard are in commit
  // order; cross-shard interleaving within the prefix is free
  // (transactions' shard-disjoint records commute, and same-key records
  // always share a shard).
  {
    std::atomic<uint64_t> Failures{0};
    std::atomic<uint32_t> Next{0};
    unsigned NumWorkers = std::max(1u, std::min<unsigned>(
        std::thread::hardware_concurrency(), S.shards()));
    std::vector<std::thread> Workers;
    for (unsigned W = 0; W < NumWorkers; ++W)
      Workers.emplace_back([&] {
        for (;;) {
          uint32_t Shard = Next.fetch_add(1, std::memory_order_relaxed);
          if (Shard >= Buckets.size())
            return;
          for (const WalRecord &Rec : Buckets[Shard]) {
            bool Ok = Rec.op() == WalOp::Put ? S.insert(Rec.Key, Rec.Val)
                                             : S.erase(Rec.Key);
            if (!Ok)
              Failures.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    for (auto &W : Workers)
      W.join();
    Out.ApplyFailures += Failures.load(std::memory_order_relaxed);
  }
  // Phase 3: truncate the file at its replayed prefix — a torn tail and a
  // beyond-cut suffix alike — so the dropped records cannot resurface in
  // a later recovery (they would re-cut the log there and orphan
  // everything appended afterwards). The repair must be durable before
  // any new append can be acked: resize_file alone only reaches the page
  // cache, and after power loss a resurrected stale suffix would collide
  // with the reused LSNs of the next generation and make an acked
  // new-generation group look torn. So fsync the file, and the
  // directory, before returning.
  if (KeepBytes < FileBytes) {
    Out.TruncatedBytes = FileBytes - KeepBytes;
    std::filesystem::resize_file(logFile(Cfg.Dir), KeepBytes, Ec);
    int RFd = ::open(logFile(Cfg.Dir).c_str(), O_WRONLY);
    if (RFd >= 0) {
      if (::fsync(RFd) < 0)
        ioFatal("fsync", logFile(Cfg.Dir));
      ::close(RFd);
    }
    fsyncDir(Cfg.Dir);
  }
  // Record the durable history's high-water mark; start() folds the live
  // publish-ticket counter into BaseLsn so the next generation's first
  // record lands exactly at cut + 1 — even though the replay transactions
  // above consumed tickets themselves under Config::SnapshotEnabled. An
  // empty or fully-cut log continues at LSN 2, the fixed origin the
  // contiguity check anchors on.
  LastLsn = std::max<uint64_t>(Out.CutLsn, 1);
  // Reclamation identities must hold on the rebuilt store: every record
  // parked by a replayed erase is accounted for, nothing leaked.
  Store::ReclaimStats Rs = S.reclaimStats();
  Out.ReclaimIdentityOk =
      Rs.PoolSize == Rs.Retired - Rs.Recycled && Rs.Retired >= Rs.Recycled;
  Out.Millis = Timer.millis();
  return Out;
}
