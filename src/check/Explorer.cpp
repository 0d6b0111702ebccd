//===- check/Explorer.cpp - Systematic interleaving explorer --------------===//
//
// Part of the SATM project, reproducing Shpeisman et al., PLDI 2007.
//
//===----------------------------------------------------------------------===//
//
// Structure:
//
//  - Coop: a cooperative scheduler plus one worker thread per program
//    thread. Exactly one thread (scheduler or one worker) runs at any
//    instant; control moves through a mutex/condvar handoff. Workers yield
//    back at every step boundary and at every schedYield point inside the
//    STM runtime (Config::Yield). A yield that carries a record pointer
//    marks the thread *blocked*: it is not schedulable until the record
//    word changes, which keeps exhaustive enumeration finite in the
//    presence of spin loops. If every live thread is blocked (a genuine
//    cross-thread wait cycle), the blocked threads become schedulable
//    again so the runtime's ConflictPauseLimit abort paths can fire.
//
//  - runOnce(): executes the program once under a forced schedule prefix
//    (default policy past the prefix: keep the running thread; otherwise
//    the lowest-numbered enabled thread), recording every decision point,
//    the trace, and the normalized outcome.
//
//  - explore(): CHESS-style depth-first enumeration over decision points
//    with a preemption bound, by re-running with ever-longer forced
//    prefixes; optionally followed by seeded random walks with unbounded
//    preemptions. Every outcome is checked against the Oracle.
//
//===----------------------------------------------------------------------===//

#include "check/Explorer.h"

#include "rt/Heap.h"
#include "stm/Barriers.h"
#include "stm/LazyTxn.h"
#include "stm/Snapshot.h"
#include "stm/Txn.h"
#include "support/Rng.h"

#include <algorithm>
#include <cctype>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <unordered_map>

using namespace satm;
using namespace satm::check;
using namespace satm::stm;
using litmus::Regime;
using rt::Object;

std::string satm::check::variantName(const ConfigVariant &V) {
  std::ostringstream OS;
  OS << "g" << V.LogGranularitySlots << (V.ReverseWriteback ? "+revwb" : "");
  if (V.IrrevocableAfterAborts)
    OS << "+irr" << V.IrrevocableAfterAborts;
  if (V.KarmaPriority)
    OS << "+karma";
  if (V.SnapshotPlane)
    OS << "+snap";
  if (V.QuiesceOnCommit)
    OS << "+qsc";
  return OS.str();
}

namespace {

class Coop;

/// Identifies the current worker to the global Config::Yield trampoline.
struct WorkerTls {
  Coop *C = nullptr;
  int Thread = -1;
};
thread_local WorkerTls TlsWorker;

void yieldTrampoline(YieldPoint P, const std::atomic<Word> *Rec,
                     Word Observed);

/// Cooperative scheduler and worker pool for one (program, regime, config
/// variant). Reused across the many runs of an exploration so worker
/// threads are spawned once.
class Coop {
public:
  struct Decision {
    std::vector<uint8_t> Cands; ///< Schedulable threads; Prev first if able.
    int8_t Prev;                ///< Thread that ran before this decision.
    bool PrevEnabled;           ///< Prev could have continued.
    uint8_t Chosen;
  };

  struct RunRecord {
    std::vector<Decision> Decisions;
    std::vector<uint8_t> Choices;
    Trace Events;
    Outcome Observed;
    std::string Error; ///< Worker exception or schedule divergence.
    bool Livelock = false;
  };

  Coop(const Program &P, Regime R, const ConfigVariant &V)
      : Prog(P), R(R), NThreads(P.Threads.size()), Saved(config()) {
    Config C;
    C.DeaEnabled = false;
    C.LogGranularitySlots = V.LogGranularitySlots;
    C.ReverseWriteback = V.ReverseWriteback;
    C.IrrevocableAfterAborts = V.IrrevocableAfterAborts;
    C.KarmaPriority = V.KarmaPriority;
    C.CollectStats = false;
    C.QuiesceOnCommit = V.QuiesceOnCommit;
    C.SnapshotEnabled = V.SnapshotPlane;
    // Small so the all-blocked fallback resolves txn-txn deadlocks in few
    // scheduling grants; semantics are unchanged (abort and retry).
    C.ConflictPauseLimit = 12;
    C.Yield = &yieldTrampoline;
    config() = C;

    for (const ObjectSpec &Spec : P.Objects)
      Types.emplace_back(Spec.Name, Spec.Slots, Spec.RefSlots);
    LockType = std::make_unique<rt::TypeDescriptor>(
        "__lock", 1u, std::vector<uint32_t>{});

    Slots.resize(NThreads);
    Workers.reserve(NThreads);
    for (size_t T = 0; T < NThreads; ++T)
      Workers.emplace_back([this, T] { workerMain(static_cast<int>(T)); });
  }

  ~Coop() {
    {
      std::lock_guard<std::mutex> L(M);
      Exiting = true;
    }
    CV.notify_all();
    for (std::thread &W : Workers)
      W.join();
    config() = Saved;
  }

  Coop(const Coop &) = delete;
  Coop &operator=(const Coop &) = delete;

  /// Runs the program once. The first |Prefix| decisions are forced; past
  /// the prefix, RandomRng (if non-null) picks uniformly among candidates,
  /// otherwise the default policy applies.
  RunRecord runOnce(const std::vector<uint8_t> &Prefix, Rng *RandomRng,
                    uint32_t MaxGrants) {
    RunRecord RR;
    Cur = &RR;
    setupRun();

    std::unique_lock<std::mutex> L(M);
    int Prev = -1;
    size_t Di = 0;
    uint32_t Grants = 0;
    uint32_t FallbackRotor = 0;
    for (;;) {
      Decision D;
      D.Prev = static_cast<int8_t>(Prev);
      bool AllDone = true;
      std::vector<uint8_t> Enabled, BlockedAlive;
      for (size_t T = 0; T < NThreads; ++T) {
        ThreadSlot &S = Slots[T];
        if (S.St == WState::Done)
          continue;
        AllDone = false;
        // Sticky wake: transaction-record words can ABA (release then
        // re-acquire by the same descriptor restores the identical word),
        // so a blocked thread is woken by *any* change seen at *any*
        // decision point, not just a difference at this one. The runtime
        // never releases and re-acquires a record within a single grant
        // window (every acquire is preceded by a yield or a step pause),
        // so every release is visible at some decision.
        if (S.St == WState::Blocked &&
            S.BlockRec->load(std::memory_order_acquire) != S.BlockObserved)
          S.Woken = true;
        bool IsEnabled = S.St != WState::Blocked || S.Woken;
        (IsEnabled ? Enabled : BlockedAlive).push_back(
            static_cast<uint8_t>(T));
      }
      if (AllDone)
        break;
      // All live threads blocked on unchanged records: a genuine wait
      // cycle. Schedule the blocked threads anyway so the runtime's
      // bounded-pause abort paths break the cycle.
      std::vector<uint8_t> &Cands = Enabled.empty() ? BlockedAlive : Enabled;
      // Canonical order: the previously running thread first (so the
      // default choice never preempts), then ascending ids.
      D.PrevEnabled = false;
      if (Prev >= 0) {
        for (size_t I = 0; I < Cands.size(); ++I) {
          if (Cands[I] == Prev) {
            std::rotate(Cands.begin(), Cands.begin() + I,
                        Cands.begin() + I + 1);
            D.PrevEnabled = true;
            break;
          }
        }
      }
      D.Cands = Cands;

      if (++Grants > MaxGrants)
        RR.Livelock = true;

      uint8_t Chosen;
      if (Di < Prefix.size()) {
        Chosen = Prefix[Di];
        if (std::find(Cands.begin(), Cands.end(), Chosen) == Cands.end()) {
          RR.Error = "schedule diverged: forced thread " +
                     std::to_string(int(Chosen)) + " not schedulable at " +
                     "decision " + std::to_string(Di);
          // Fall back to the default policy so the run still drains.
          Chosen = Cands[0];
        }
      } else if (Enabled.empty()) {
        // All-blocked fallback: rotate through the blocked threads so every
        // one of them accrues grants. A fixed choice can starve the only
        // thread able to break the wait cycle — transactional spinners
        // abort (and release their records) after ConflictPauseLimit
        // grants, but non-transactional barrier spinners can only wait, so
        // granting one of those forever deadlocks the run.
        Chosen = Cands[FallbackRotor++ % Cands.size()];
      } else if (RR.Livelock) {
        // Livelock rescue. Two transactions can chase each other through
        // mutual abort-and-reacquire cycles forever under the Prev-first
        // default (the just-aborted thread is re-granted and re-acquires
        // the record its peer is waiting for). Strict lowest-id priority
        // drains any such cycle: a thread spinning on a held record hits
        // ConflictPauseLimit after finitely many grants, aborts, and
        // releases its records, so the minimum live thread always commits
        // within a bounded number of grants. The rescue choices are
        // recorded like any others, so replay stays exact.
        Chosen = *std::min_element(Cands.begin(), Cands.end());
      } else if (RandomRng) {
        Chosen = Cands[RandomRng->nextBelow(Cands.size())];
      } else {
        Chosen = Cands[0];
      }
      D.Chosen = Chosen;
      RR.Decisions.push_back(D);
      RR.Choices.push_back(Chosen);
      Di++;

      if (Grants > 50u * MaxGrants) {
        // The rescue policy terminates any program whose transactions make
        // progress when run alone; bail out loudly rather than hang the
        // whole test binary if that assumption is ever violated.
        std::fprintf(stderr, "check::Coop: runaway schedule in %s\n",
                     Prog.Name.c_str());
        for (size_t T = 0; T < NThreads; ++T)
          std::fprintf(stderr, "  t%zu state=%d\n", T, (int)Slots[T].St);
        size_t From = RR.Events.size() > 60 ? RR.Events.size() - 60 : 0;
        for (size_t I = From; I < RR.Events.size(); ++I)
          std::fprintf(stderr, "  %s\n",
                       formatEvent(Prog, RR.Events[I]).c_str());
        std::abort();
      }

      ThreadSlot &S = Slots[Chosen];
      S.St = WState::Granted;
      S.BlockRec = nullptr;
      CV.notify_all();
      CV.wait(L, [&] { return Slots[Chosen].St != WState::Granted; });
      Prev = Chosen;
    }
    L.unlock();

    collectOutcome(RR);
    Cur = nullptr;
    return RR;
  }

  const Program &program() const { return Prog; }

private:
  friend void yieldTrampoline(YieldPoint, const std::atomic<Word> *, Word);

  enum class WState : uint8_t { Idle, Granted, Yielded, Blocked, Done };

  struct ThreadSlot {
    WState St = WState::Done;
    const std::atomic<Word> *BlockRec = nullptr;
    Word BlockObserved = 0;
    bool Woken = false; ///< Sticky: record changed since the thread blocked.
  };

  //===------------------------------------------------------------------===
  // Per-run state.
  //===------------------------------------------------------------------===

  void setupRun() {
    // The version table is keyed by raw Object*; the previous run's heap is
    // about to be destroyed and its addresses reused.
    snap::resetTable();
    HeapPtr = std::make_unique<rt::Heap>(1u << 16);
    Objects.clear();
    PtrToIdx.clear();
    for (const rt::TypeDescriptor &T : Types)
      Objects.push_back(HeapPtr->allocate(&T, rt::BirthState::Shared));
    for (size_t I = 0; I < Objects.size(); ++I)
      PtrToIdx.emplace(Object::toWord(Objects[I]), static_cast<int>(I));
    for (size_t I = 0; I < Objects.size(); ++I) {
      const ObjectSpec &Spec = Prog.Objects[I];
      for (size_t S = 0; S < Spec.Init.size(); ++S)
        Objects[I]->rawStore(static_cast<uint32_t>(S),
                             denormalize(Spec.Init[S]));
    }
    LockObj = HeapPtr->allocate(LockType.get(), rt::BirthState::Shared);

    Regs.assign(NThreads, {});
    RegSnap.assign(NThreads, {});
    for (auto &R : Regs) {
      R.assign(Prog.RegCount, 0);
      for (size_t I = 0; I < Prog.RegInit.size() && I < R.size(); ++I)
        R[I] = Prog.RegInit[I];
    }
    AbortFired.assign(NThreads, 0);
    VCCounts.assign(NThreads, 0);

    std::lock_guard<std::mutex> L(M);
    for (ThreadSlot &S : Slots)
      S = ThreadSlot{WState::Idle, nullptr, 0};
  }

  /// Maps a runtime word to the oracle encoding (object pointers become
  /// refWord) and back.
  Word normalize(Word V) const {
    auto It = PtrToIdx.find(V);
    return It == PtrToIdx.end() ? V : refWord(It->second);
  }
  Word denormalize(Word V) const {
    if (isRefWord(V, Objects.size()))
      return Object::toWord(Objects[V - RefBase]);
    return V;
  }

  void collectOutcome(RunRecord &RR) {
    for (Object *O : Objects)
      for (uint32_t S = 0; S < O->slotCount(); ++S)
        RR.Observed.Mem.push_back(normalize(O->rawLoad(S)));
    for (const auto &R : Regs)
      RR.Observed.Regs.insert(RR.Observed.Regs.end(), R.begin(), R.end());
  }

  //===------------------------------------------------------------------===
  // Worker side.
  //===------------------------------------------------------------------===

  void workerMain(int T) {
    TlsWorker = WorkerTls{this, T};
    std::unique_lock<std::mutex> L(M);
    for (;;) {
      CV.wait(L, [&] {
        return Exiting || Slots[T].St == WState::Granted;
      });
      if (Exiting)
        break;
      L.unlock();
      std::string Err;
      try {
        runThreadProgram(T);
      } catch (const std::exception &E) {
        Err = E.what();
      } catch (...) {
        Err = "unknown exception";
      }
      L.lock();
      if (!Err.empty() && Cur && Cur->Error.empty())
        Cur->Error = "thread " + std::to_string(T) + ": " + Err;
      Slots[T].St = WState::Done;
      CV.notify_all();
    }
  }

  /// Parks the worker and hands control to the scheduler. With a non-null
  /// \p Rec the thread is blocked until the record changes. \p Record adds
  /// a Yield trace event (runtime-internal points only; step boundaries
  /// are implied by the following access event).
  void yieldHere(int T, YieldPoint P, const std::atomic<Word> *Rec,
                 Word Observed, bool Record) {
    if (Record)
      recordEvent(T, TraceEvent::Kind::Yield, P, -1, 0, 0);
    std::unique_lock<std::mutex> L(M);
    if (Exiting)
      return; // Shutdown: degrade to free-running (never in normal runs).
    ThreadSlot &S = Slots[T];
    S.St = Rec ? WState::Blocked : WState::Yielded;
    S.BlockRec = Rec;
    S.BlockObserved = Observed;
    S.Woken = false; // A fresh block re-arms the sticky wake.
    CV.notify_all();
    CV.wait(L, [&] { return Exiting || S.St == WState::Granted; });
  }

  /// Step-boundary yield: a plain preemption opportunity before every
  /// shared-memory access the program makes.
  void pause(int T) {
    yieldHere(T, YieldPoint::TxnContention, nullptr, 0, /*Record=*/false);
  }

  void recordEvent(int T, TraceEvent::Kind K, YieldPoint P, int Obj,
                   uint16_t Slot, Word Value) {
    TraceEvent E;
    E.K = K;
    E.Thread = static_cast<uint8_t>(T);
    E.Point = P;
    E.Obj = static_cast<int16_t>(Obj);
    E.Slot = Slot;
    E.Value = Value;
    VCCounts[T]++;
    E.VC = VCCounts;
    Cur->Events.push_back(std::move(E));
  }

  void recordAccess(int T, TraceEvent::Kind K, int Obj, uint32_t Slot,
                    Word NormValue) {
    recordEvent(T, K, YieldPoint::TxnContention, Obj,
                static_cast<uint16_t>(Slot), NormValue);
  }

  Word refOf(int Obj) const { return refWord(Obj); }

  /// Resolves a step's target, or null for an invalid indirect reference
  /// (the step is a no-op, matching the oracle).
  Object *resolveTarget(int T, const Step &S, int &ObjIdx) {
    if (S.Obj >= 0) {
      ObjIdx = S.Obj;
    } else {
      Word W = Regs[T][S.ObjReg]; // Registers hold normalized values.
      if (!isRefWord(W, Objects.size()))
        return nullptr;
      ObjIdx = static_cast<int>(W - RefBase);
    }
    if (S.Slot >= Prog.Objects[ObjIdx].Slots)
      return nullptr;
    return Objects[ObjIdx];
  }

  void runThreadProgram(int T) {
    for (const Segment &Seg : Prog.Threads[T]) {
      if (!Seg.IsTxn) {
        if (Seg.IsAggregated)
          execAggregatedSegment(T, Seg);
        else
          for (const Step &S : Seg.Steps)
            execNtStep(T, S);
        continue;
      }
      RegSnap[T] = Regs[T];
      if (Seg.IsSnapshot) {
        // The snapshot plane is regime-independent (always a Txn snapshot
        // region); it needs a variant with SnapshotPlane set so committing
        // writers actually publish version records.
        Txn::runSnapshot([&] { execTxnBody(T, Seg, /*Lazy=*/false); });
        recordEvent(T, TraceEvent::Kind::SnapCommit,
                    YieldPoint::TxnContention, -1, 0, 0);
        continue;
      }
      switch (R) {
      case Regime::Eager:
      case Regime::Strong:
        Txn::run([&] { execTxnBody(T, Seg, /*Lazy=*/false); });
        break;
      case Regime::Lazy:
      case Regime::LazyOrd:
        LazyTxn::run([&] { execTxnBody(T, Seg, /*Lazy=*/true); });
        break;
      case Regime::Locks:
        execLockedRegion(T, Seg);
        continue;
      }
      recordEvent(T, TraceEvent::Kind::TxnCommit, YieldPoint::TxnContention,
                  -1, 0, 0);
    }
  }

  void execTxnBody(int T, const Segment &Seg, bool Lazy) {
    // Each (re)execution starts from the registers the region began with:
    // registers model transaction-local state.
    Regs[T] = RegSnap[T];
    recordEvent(T,
                Seg.IsSnapshot ? TraceEvent::Kind::SnapBegin
                               : TraceEvent::Kind::TxnBegin,
                YieldPoint::TxnContention, -1, 0, 0);
    auto Ref = [this](int O) { return refOf(O); };
    for (const Step &S : Seg.Steps) {
      if (!guardPasses(S.G, Regs[T], Ref))
        continue;
      if (S.Kind == Step::Op::AbortOnce) {
        if (AbortFired[T])
          continue;
        AbortFired[T] = 1;
        recordEvent(T, TraceEvent::Kind::AbortOnce, YieldPoint::TxnContention,
                    -1, 0, 0);
        if (Lazy)
          LazyTxn::forThisThread().abortRestart();
        Txn::forThisThread().abortRestart();
      }
      int ObjIdx = -1;
      Object *O = resolveTarget(T, S, ObjIdx);
      if (!O)
        continue;
      pause(T);
      if (S.Kind == Step::Op::Read) {
        Word V = Lazy ? LazyTxn::forThisThread().read(O, S.Slot)
                      : Txn::forThisThread().read(O, S.Slot);
        V = normalize(V);
        Regs[T][S.Dst] = V;
        recordAccess(T, TraceEvent::Kind::Read, ObjIdx, S.Slot, V);
      } else {
        Word NV = evalOperand(S.Src, Regs[T], Ref);
        Word V = denormalize(NV);
        if (Lazy)
          LazyTxn::forThisThread().write(O, S.Slot, V);
        else
          Txn::forThisThread().write(O, S.Slot, V);
        recordAccess(T, TraceEvent::Kind::Write, ObjIdx, S.Slot, NV);
      }
    }
  }

  void execLockedRegion(int T, const Segment &Seg) {
    // A cooperative lock built on a dedicated object's transaction record:
    // a std::mutex would block the OS thread outside the scheduler's
    // control and deadlock the handoff protocol.
    std::atomic<Word> &Rec = LockObj->txRecord();
    pause(T);
    while (!TxRecord::acquireAnon(Rec)) {
      Word W = Rec.load(std::memory_order_acquire);
      yieldHere(T, YieldPoint::NtWriteBarrier, &Rec, W, /*Record=*/false);
    }
    recordEvent(T, TraceEvent::Kind::TxnBegin, YieldPoint::TxnContention, -1,
                0, 0);
    auto Ref = [this](int O) { return refOf(O); };
    for (const Step &S : Seg.Steps) {
      if (!guardPasses(S.G, Regs[T], Ref))
        continue;
      if (S.Kind == Step::Op::AbortOnce)
        continue; // Lock regions cannot abort (stm/Litmus semantics).
      int ObjIdx = -1;
      Object *O = resolveTarget(T, S, ObjIdx);
      if (!O)
        continue;
      pause(T);
      if (S.Kind == Step::Op::Read) {
        Word V = normalize(O->rawLoad(S.Slot, std::memory_order_acquire));
        Regs[T][S.Dst] = V;
        recordAccess(T, TraceEvent::Kind::Read, ObjIdx, S.Slot, V);
      } else {
        Word NV = evalOperand(S.Src, Regs[T], Ref);
        O->rawStore(S.Slot, denormalize(NV), std::memory_order_release);
        recordAccess(T, TraceEvent::Kind::Write, ObjIdx, S.Slot, NV);
      }
    }
    recordEvent(T, TraceEvent::Kind::TxnCommit, YieldPoint::TxnContention,
                -1, 0, 0);
    TxRecord::releaseAnon(Rec);
  }

  /// §6 barrier aggregation: one acquire (write) or one validation (read)
  /// covers every step of the segment, which must address a single object
  /// directly. Only the Strong regime has aggregated barriers; the other
  /// regimes run the usual per-step path — the oracle executes every
  /// segment atomically either way, so aggregation only narrows which
  /// interleavings the *implementation* can produce.
  void execAggregatedSegment(int T, const Segment &Seg) {
    if (R != Regime::Strong) {
      for (const Step &S : Seg.Steps)
        execNtStep(T, S);
      return;
    }
    auto Ref = [this](int O) { return refOf(O); };
    int ObjIdx = Seg.Steps.front().Obj;
    assert(ObjIdx >= 0 && "aggregated steps must address an object directly");
    Object *O = Objects[ObjIdx];
    bool HasWrite = false;
    for (const Step &S : Seg.Steps) {
      assert(S.Obj == ObjIdx && "aggregated scope spans a single object");
      assert(S.Kind != Step::Op::AbortOnce && "no aborts outside regions");
      HasWrite |= S.Kind == Step::Op::Write;
    }
    pause(T); // Preemption opportunity before the acquire/first load.
    if (HasWrite) {
      AggregatedWriter W(O);
      // pause() inside the scope exposes the whole hold window to the
      // scheduler: other threads run against the Exclusive-anon record.
      for (const Step &S : Seg.Steps) {
        if (!guardPasses(S.G, Regs[T], Ref) ||
            S.Slot >= Prog.Objects[ObjIdx].Slots)
          continue;
        pause(T);
        if (S.Kind == Step::Op::Read) {
          Word V = normalize(W.load(S.Slot));
          Regs[T][S.Dst] = V;
          recordAccess(T, TraceEvent::Kind::Read, ObjIdx, S.Slot, V);
        } else {
          Word NV = evalOperand(S.Src, Regs[T], Ref);
          W.store(S.Slot, denormalize(NV));
          recordAccess(T, TraceEvent::Kind::Write, ObjIdx, S.Slot, NV);
        }
      }
      return;
    }
    // Read-only scope. The body may re-execute until the record is stable
    // across it, so it mutates only local copies (idempotent as required);
    // registers and the trace are committed once, after the validated run.
    std::vector<Word> LocalRegs;
    std::vector<std::pair<const Step *, Word>> Reads;
    aggregatedRead(O, [&](const Object *AO) {
      LocalRegs = Regs[T];
      Reads.clear();
      for (const Step &S : Seg.Steps) {
        if (!guardPasses(S.G, LocalRegs, Ref) ||
            S.Slot >= Prog.Objects[ObjIdx].Slots)
          continue;
        pause(T); // Expose the multi-load window between the two fences.
        Word V = normalize(AO->rawLoad(S.Slot, std::memory_order_acquire));
        LocalRegs[S.Dst] = V;
        Reads.push_back({&S, V});
      }
      return 0;
    });
    Regs[T] = LocalRegs;
    for (const auto &RV : Reads)
      recordAccess(T, TraceEvent::Kind::Read, ObjIdx, RV.first->Slot,
                   RV.second);
  }

  void execNtStep(int T, const Step &S) {
    auto Ref = [this](int O) { return refOf(O); };
    if (!guardPasses(S.G, Regs[T], Ref))
      return;
    if (S.Kind == Step::Op::AbortOnce)
      return; // Aborts are meaningful only inside atomic regions.
    int ObjIdx = -1;
    Object *O = resolveTarget(T, S, ObjIdx);
    if (!O)
      return;
    pause(T);
    if (S.Kind == Step::Op::Read) {
      Word V;
      switch (R) {
      case Regime::Strong:
        V = ntRead(O, S.Slot);
        break;
      case Regime::LazyOrd:
        V = ntReadOrdering(O, S.Slot); // §3.3: ordering, not isolation.
        break;
      default:
        V = O->rawLoad(S.Slot, std::memory_order_acquire);
        break;
      }
      V = normalize(V);
      Regs[T][S.Dst] = V;
      recordAccess(T, TraceEvent::Kind::Read, ObjIdx, S.Slot, V);
    } else {
      Word NV = evalOperand(S.Src, Regs[T], Ref);
      Word V = denormalize(NV);
      if (R == Regime::Strong)
        ntWrite(O, S.Slot, V);
      else
        O->rawStore(S.Slot, V, std::memory_order_release);
      recordAccess(T, TraceEvent::Kind::Write, ObjIdx, S.Slot, NV);
    }
  }

  //===------------------------------------------------------------------===
  // Members.
  //===------------------------------------------------------------------===

  const Program &Prog;
  Regime R;
  size_t NThreads;
  Config Saved;

  std::deque<rt::TypeDescriptor> Types;
  std::unique_ptr<rt::TypeDescriptor> LockType;
  std::unique_ptr<rt::Heap> HeapPtr;
  std::vector<Object *> Objects;
  std::unordered_map<Word, int> PtrToIdx;
  Object *LockObj = nullptr;

  std::vector<std::vector<Word>> Regs, RegSnap;
  std::vector<uint8_t> AbortFired;
  std::vector<uint32_t> VCCounts;
  RunRecord *Cur = nullptr;

  std::mutex M;
  std::condition_variable CV;
  std::vector<ThreadSlot> Slots;
  bool Exiting = false;
  std::vector<std::thread> Workers;
};

void yieldTrampoline(YieldPoint P, const std::atomic<Word> *Rec,
                     Word Observed) {
  if (TlsWorker.C)
    TlsWorker.C->yieldHere(TlsWorker.Thread, P, Rec, Observed,
                           /*Record=*/true);
}

bool isPreempt(const Coop::Decision &D, uint8_t Choice) {
  return D.Prev >= 0 && D.PrevEnabled &&
         Choice != static_cast<uint8_t>(D.Prev);
}

const Regime AllRegimes[] = {Regime::Eager, Regime::Lazy, Regime::Locks,
                             Regime::Strong, Regime::LazyOrd};

} // namespace

//===----------------------------------------------------------------------===
// Tokens.
//===----------------------------------------------------------------------===

std::string satm::check::formatToken(const ScheduleToken &T) {
  std::ostringstream OS;
  OS << "sx1;" << litmus::regimeName(T.R) << ";v" << T.Variant << ";";
  for (size_t I = 0; I < T.Choices.size(); ++I)
    OS << (I ? "," : "") << int(T.Choices[I]);
  return OS.str();
}

bool satm::check::parseToken(const std::string &S, ScheduleToken &Out,
                             std::string *Error) {
  auto Fail = [&](const std::string &Why) {
    if (Error)
      *Error = "bad schedule token: " + Why;
    return false;
  };
  std::vector<std::string> Parts;
  size_t Pos = 0;
  while (Parts.size() < 4) {
    size_t Semi = S.find(';', Pos);
    if (Semi == std::string::npos) {
      Parts.push_back(S.substr(Pos));
      break;
    }
    Parts.push_back(S.substr(Pos, Semi - Pos));
    Pos = Semi + 1;
  }
  if (Parts.size() != 4)
    return Fail("expected 4 ';'-separated fields");
  if (Parts[0] != "sx1")
    return Fail("unknown version '" + Parts[0] + "'");
  bool RegimeFound = false;
  for (Regime R : AllRegimes) {
    if (Parts[1] == litmus::regimeName(R)) {
      Out.R = R;
      RegimeFound = true;
      break;
    }
  }
  if (!RegimeFound)
    return Fail("unknown regime '" + Parts[1] + "'");
  if (Parts[2].size() < 2 || Parts[2][0] != 'v')
    return Fail("bad variant field '" + Parts[2] + "'");
  Out.Variant = 0;
  for (size_t I = 1; I < Parts[2].size(); ++I) {
    if (!isdigit(static_cast<unsigned char>(Parts[2][I])))
      return Fail("bad variant field '" + Parts[2] + "'");
    Out.Variant = Out.Variant * 10 + (Parts[2][I] - '0');
  }
  Out.Choices.clear();
  const std::string &C = Parts[3];
  size_t I = 0;
  while (I < C.size()) {
    size_t J = I;
    unsigned V = 0;
    while (J < C.size() && isdigit(static_cast<unsigned char>(C[J]))) {
      V = V * 10 + (C[J] - '0');
      J++;
    }
    if (J == I || V > 255)
      return Fail("bad choice list");
    Out.Choices.push_back(static_cast<uint8_t>(V));
    if (J < C.size()) {
      if (C[J] != ',')
        return Fail("bad choice list");
      J++;
    }
    I = J;
  }
  return true;
}

//===----------------------------------------------------------------------===
// Trace formatting.
//===----------------------------------------------------------------------===

namespace {

const char *yieldPointName(YieldPoint P) {
  switch (P) {
  case YieldPoint::TxnContention:
    return "txn-contention";
  case YieldPoint::TxnRollback:
    return "txn-rollback";
  case YieldPoint::NtReadBarrier:
    return "nt-read-barrier";
  case YieldPoint::NtWriteBarrier:
    return "nt-write-barrier";
  case YieldPoint::LazyCommitPoint:
    return "lazy-commit-point";
  case YieldPoint::LazyWritebackEntry:
    return "lazy-writeback-entry";
  case YieldPoint::LazyCommitAcquire:
    return "lazy-commit-acquire";
  case YieldPoint::SerialGate:
    return "serial-gate";
  case YieldPoint::SnapshotPin:
    return "snapshot-pin";
  case YieldPoint::SnapshotRead:
    return "snapshot-read";
  case YieldPoint::SnapshotPublish:
    return "snapshot-publish";
  case YieldPoint::QuiesceWait:
    return "quiesce-wait";
  }
  return "?";
}

void formatValue(std::ostringstream &OS, const Program &P, Word V) {
  if (isRefWord(V, P.Objects.size()))
    OS << '&' << P.Objects[V - RefBase].Name;
  else
    OS << V;
}

} // namespace

std::string satm::check::formatEvent(const Program &P, const TraceEvent &E) {
  std::ostringstream OS;
  OS << 't' << int(E.Thread) << ' ';
  switch (E.K) {
  case TraceEvent::Kind::TxnBegin:
    OS << "txn-begin";
    break;
  case TraceEvent::Kind::TxnCommit:
    OS << "txn-commit";
    break;
  case TraceEvent::Kind::SnapBegin:
    OS << "snap-begin";
    break;
  case TraceEvent::Kind::SnapCommit:
    OS << "snap-commit";
    break;
  case TraceEvent::Kind::AbortOnce:
    OS << "abort";
    break;
  case TraceEvent::Kind::Yield:
    OS << "yield(" << yieldPointName(E.Point) << ')';
    break;
  case TraceEvent::Kind::Read:
  case TraceEvent::Kind::Write:
    OS << (E.K == TraceEvent::Kind::Read ? "read  " : "write ")
       << P.Objects[E.Obj].Name << '.' << E.Slot
       << (E.K == TraceEvent::Kind::Read ? " -> " : " <- ");
    formatValue(OS, P, E.Value);
    break;
  }
  OS << "  vc[";
  for (size_t I = 0; I < E.VC.size(); ++I)
    OS << (I ? "," : "") << E.VC[I];
  OS << ']';
  return OS.str();
}

std::string satm::check::formatTrace(const Program &P, const Trace &T) {
  std::ostringstream OS;
  for (const TraceEvent &E : T)
    OS << "  " << formatEvent(P, E) << '\n';
  return OS.str();
}

//===----------------------------------------------------------------------===
// explore() and replay().
//===----------------------------------------------------------------------===

namespace {

struct Frame {
  Coop::Decision D;
  uint32_t PreBefore; ///< Preemptions spent before this decision.
  uint32_t CurPre;    ///< Preemptions through this decision as chosen.
  size_t NextAlt;     ///< Next candidate index to try on backtrack.
  uint8_t CurChosen;
};

void recordViolation(ExploreResult &Res, const std::string &Detail, Regime R,
                     size_t Variant, const Coop::RunRecord &RR) {
  if (Res.Violations.size() >= 8)
    return; // Count is what matters past the first few; keep memory flat.
  Violation V;
  ScheduleToken Tok;
  Tok.R = R;
  Tok.Variant = Variant;
  Tok.Choices = RR.Choices;
  V.Token = formatToken(Tok);
  V.Events = RR.Events;
  V.Observed = RR.Observed;
  V.Detail = Detail;
  Res.Violations.push_back(std::move(V));
}

} // namespace

ExploreResult satm::check::explore(const Program &P, Regime R,
                                   const ExploreOptions &Opts) {
  if (P.Threads.empty() || P.Threads.size() > 8)
    throw std::invalid_argument("explore: 1..8 threads required");
  // The judging oracle: serializability by default, snapshot isolation for
  // snapshot-plane programs (ExploreOptions::SnapshotIsolation).
  std::unique_ptr<Oracle> SerO;
  std::unique_ptr<SiOracle> SiO;
  if (Opts.SnapshotIsolation)
    SiO = std::make_unique<SiOracle>(P);
  else
    SerO = std::make_unique<Oracle>(P);
  auto IsLegal = [&](const Outcome &O) {
    return SiO ? SiO->isLegal(O) : SerO->isLegal(O);
  };
  auto Explain = [&](const Outcome &O) {
    return SiO ? SiO->explain(O) : SerO->explain(O);
  };
  ExploreResult Res;
  Res.Serializations =
      SiO ? SiO->serializationCount() : SerO->serializationCount();
  Res.LegalOutcomes = SiO ? SiO->outcomes().size() : SerO->outcomes().size();

  bool AllExhausted = true;
  for (size_t Vi = 0; Vi < P.Variants.size(); ++Vi) {
    Coop C(P, R, P.Variants[Vi]);

    std::vector<Frame> Stack;
    std::vector<uint8_t> Prefix;
    bool VariantExhausted = false;
    for (;;) {
      if (Res.Schedules >= Opts.MaxSchedules)
        break;
      Coop::RunRecord RR =
          C.runOnce(Prefix, nullptr, Opts.MaxGrantsPerRun);
      Res.Schedules++;
      if (!RR.Error.empty())
        throw std::runtime_error("explore(" + P.Name + "): " + RR.Error);
      if (!IsLegal(RR.Observed)) {
        recordViolation(Res, Explain(RR.Observed), R, Vi, RR);
        if (Opts.StopAtFirstViolation)
          return Res;
      }

      // Extend the frame stack with the decisions past the forced prefix
      // (their default choices cost no preemptions by construction).
      for (size_t I = Stack.size(); I < RR.Decisions.size(); ++I) {
        Frame F;
        F.D = RR.Decisions[I];
        F.PreBefore = Stack.empty() ? 0 : Stack.back().CurPre;
        F.CurChosen = F.D.Chosen;
        F.CurPre = F.PreBefore + (isPreempt(F.D, F.CurChosen) ? 1 : 0);
        F.NextAlt = 1; // Candidate 0 is what this run just chose.
        Stack.push_back(std::move(F));
      }

      // Backtrack to the deepest decision with an untried in-budget
      // alternative.
      bool Advanced = false;
      while (!Stack.empty()) {
        Frame &F = Stack.back();
        while (F.NextAlt < F.D.Cands.size()) {
          uint8_t Alt = F.D.Cands[F.NextAlt++];
          uint32_t NP = F.PreBefore + (isPreempt(F.D, Alt) ? 1 : 0);
          if (NP <= Opts.PreemptionBound) {
            F.CurChosen = Alt;
            F.CurPre = NP;
            Advanced = true;
            break;
          }
        }
        if (Advanced)
          break;
        Stack.pop_back();
      }
      if (!Advanced) {
        VariantExhausted = true;
        break;
      }
      Prefix.clear();
      for (const Frame &F : Stack)
        Prefix.push_back(F.CurChosen);
    }
    AllExhausted = AllExhausted && VariantExhausted;

    // Random walks: unbounded preemptions, seeded, beyond the bound.
    if (Opts.RandomWalks) {
      Rng Rand(Opts.Seed * 1000003ull + Vi);
      for (uint64_t I = 0; I < Opts.RandomWalks; ++I) {
        Coop::RunRecord RR = C.runOnce({}, &Rand, Opts.MaxGrantsPerRun);
        Res.RandomSchedules++;
        if (!RR.Error.empty())
          throw std::runtime_error("explore(" + P.Name + "): " + RR.Error);
        if (!IsLegal(RR.Observed)) {
          recordViolation(Res, Explain(RR.Observed), R, Vi, RR);
          if (Opts.StopAtFirstViolation)
            return Res;
        }
      }
    }
  }
  Res.Exhausted = AllExhausted;
  return Res;
}

Trace satm::check::replay(const Program &P, Regime R,
                          const std::string &Token, std::string *Error) {
  ScheduleToken Tok;
  if (!parseToken(Token, Tok, Error))
    return {};
  if (Tok.R != R) {
    if (Error)
      *Error = std::string("token regime '") + litmus::regimeName(Tok.R) +
               "' does not match requested '" + litmus::regimeName(R) + "'";
    return {};
  }
  if (Tok.Variant >= P.Variants.size()) {
    if (Error)
      *Error = "token variant index out of range";
    return {};
  }
  Coop C(P, R, P.Variants[Tok.Variant]);
  Coop::RunRecord RR = C.runOnce(Tok.Choices, nullptr, 200000);
  if (!RR.Error.empty()) {
    if (Error)
      *Error = RR.Error;
    return {};
  }
  return RR.Events;
}
