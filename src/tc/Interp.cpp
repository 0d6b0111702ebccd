//===- tc/Interp.cpp - Threaded TranC interpreter -------------------------===//
//
// Part of the SATM project, reproducing Shpeisman et al., PLDI 2007.
//
//===----------------------------------------------------------------------===//

#include "tc/Interp.h"

#include "stm/Barriers.h"
#include "stm/Txn.h"

#include <functional>
#include <optional>

#include <pthread.h>

using namespace satm;
using namespace satm::tc;
using namespace satm::tc::ir;
using rt::Object;
using stm::Word;

namespace {

/// Thread-local interpreter context: transactional print buffering, the
/// step budget and the nesting bound are per executing thread.
struct ThreadCtx {
  std::string PendingOut; ///< print output buffered until commit.
  unsigned AtomicDepth = 0;
  /// Lowest host stack address at which a call or region may still open
  /// (0 until the thread's first one computes it).
  uintptr_t StackFloor = 0;
  uint64_t Steps = 0;
};

/// Host stack a call or region must leave free below its own frame. Calls
/// and atomic and open regions each recurse on the host stack, so an
/// unbounded TranC recursion would otherwise overflow it and kill the
/// process; the reserve covers the frames of the next level up to its own
/// check, and the RuntimeError raised instead, in every supported build
/// (sanitizer frames are several times the plain ones).
constexpr uintptr_t StackReserve = 512 << 10;

/// The calling thread's StackFloor: the low end of its stack plus the
/// reserve. Without stack bounds, assumes 2 MiB below the current frame,
/// the smallest default thread stack of the supported hosts.
uintptr_t stackFloor() {
  uintptr_t Here = uintptr_t(__builtin_frame_address(0));
  uintptr_t Lo = Here > (2u << 20) ? Here - (2u << 20) : 0;
  pthread_attr_t A;
  if (pthread_getattr_np(pthread_self(), &A) == 0) {
    void *Addr = nullptr;
    size_t Size = 0;
    if (pthread_attr_getstack(&A, &Addr, &Size) == 0)
      Lo = uintptr_t(Addr);
    pthread_attr_destroy(&A);
  }
  return Lo + StackReserve;
}

ThreadCtx &threadCtx() {
  thread_local ThreadCtx C;
  return C;
}

} // namespace

Interp::Interp(const Module &M, Options O) : M(M), Opts(O) {
  for (const ClassInfo &C : M.Classes)
    ClassTypes.push_back(std::make_unique<rt::TypeDescriptor>(
        C.Name, C.NumSlots, C.RefSlots));
  IntArrayType =
      std::make_unique<rt::TypeDescriptor>("int[]", rt::TypeKind::IntArray);
  RefArrayType =
      std::make_unique<rt::TypeDescriptor>("ref[]", rt::TypeKind::RefArray);
  // Statics are public cells; each static is its own one-slot object so
  // each carries its own transaction record.
  for (const StaticInfo &S : M.Statics) {
    (void)S;
    static const rt::TypeDescriptor IntCell("staticcell", 1,
                                            std::vector<uint32_t>{});
    static const rt::TypeDescriptor RefCell("staticrefcell", 1,
                                            std::vector<uint32_t>{0});
    StaticCells.push_back(Heap.allocate(S.IsRef ? &RefCell : &IntCell,
                                        rt::BirthState::Shared));
  }
}

Interp::~Interp() {
  std::lock_guard<std::mutex> Lock(ThreadsMutex);
  for (auto &[Handle, T] : Threads)
    if (T.joinable())
      T.join();
}

void Interp::emitOutput(const std::string &Text) {
  ThreadCtx &C = threadCtx();
  if (C.AtomicDepth > 0) {
    // Buffer: a retried transaction must not print twice.
    C.PendingOut += Text;
    return;
  }
  std::lock_guard<std::mutex> Lock(OutMutex);
  Out += Text;
}

std::string Interp::output() const {
  std::lock_guard<std::mutex> Lock(OutMutex);
  return Out;
}

std::string Interp::error() const { return Err; }

void Interp::threadMain(uint32_t FuncId, std::vector<Word> Args) {
  try {
    execFunction(FuncId, std::move(Args));
  } catch (RuntimeError &E) {
    std::lock_guard<std::mutex> Lock(ErrMutex);
    if (!HasError.exchange(true))
      Err = E.Message;
  }
}

bool Interp::run() {
  assert(M.MainFunc != ~0u && "module has no main()");
  stm::Config Cfg = stm::config();
  Cfg.DeaEnabled = Opts.Dea;
  stm::ScopedConfig SC(Cfg);
  // The step budget is per run: a thread's earlier runs must not use it up.
  threadCtx().Steps = 0;
  threadMain(M.MainFunc, {});
  // Join stragglers the program did not join itself.
  for (;;) {
    std::thread T;
    {
      std::lock_guard<std::mutex> Lock(ThreadsMutex);
      if (Threads.empty())
        break;
      auto It = Threads.begin();
      T = std::move(It->second);
      Threads.erase(It);
    }
    if (T.joinable())
      T.join();
  }
  return !HasError.load();
}

Word Interp::execFunction(uint32_t FuncId, std::vector<Word> Args) {
  const Function &F = M.Funcs[FuncId];
  assert(Args.size() == F.NumParams && "arity mismatch");
  std::vector<Word> Regs(F.NumRegs, 0);
  for (size_t I = 0; I < Args.size(); ++I)
    Regs[I] = Args[I];
  Word Ret = 0;
  execFromEntry(FuncId, Regs, Ret);
  return Ret;
}

namespace {

[[noreturn]] void fail(Loc Where, const std::string &Msg) {
  throw Interp::RuntimeError{std::to_string(Where.Line) + ":" +
                             std::to_string(Where.Col) + ": " + Msg};
}

/// Raises a RuntimeError instead of opening one more call or region when
/// the thread's host stack is down to its reserve.
void checkNesting(ThreadCtx &C, Loc Where) {
  if (!C.StackFloor)
    C.StackFloor = stackFloor();
  if (uintptr_t(__builtin_frame_address(0)) < C.StackFloor)
    fail(Where, "nesting depth limit exceeded: calls and atomic regions "
                "filled the thread's host stack");
}

} // namespace

/// The main execution engine. Implemented as a member so it can reach the
/// object model; structured as an explicit (block, index) machine so that
/// atomic regions can re-enter it mid-function.
void Interp::execFromEntry(uint32_t FuncId, std::vector<Word> &Regs,
                           Word &Ret) {
  const Function &F = M.Funcs[FuncId];
  ThreadCtx &TC = threadCtx();

  // Execution position. ExecUntilEnd runs until Ret (returns true) or, in
  // region mode, until the matching AtomicEnd (returns false).
  struct Pos {
    BlockId B = 0;
    size_t I = 0;
  };

  // Forward-declared recursive lambda: run from P; if StopAtAtomicEnd,
  // stop after executing an AtomicEnd.
  std::function<bool(Pos)> Run = [&](Pos P) -> bool {
    std::optional<stm::AggregatedWriter> Agg;
    Object *AggObj = nullptr;

    auto NullCheck = [](Object *O, const Inst &I) {
      if (!O)
        fail(I.Where, "null dereference");
      return O;
    };
    auto BoundsCheck = [](Object *O, Word Index, const Inst &I) {
      if (Index >= O->slotCount())
        fail(I.Where, "array index " + std::to_string((int64_t)Index) +
                          " out of bounds for length " +
                          std::to_string(O->slotCount()));
      return static_cast<uint32_t>(Index);
    };

    // Barrier-dispatched slot access for non-static heap accesses.
    auto LoadSlot = [&](Object *O, uint32_t Slot, const Inst &I) -> Word {
      stm::Txn &T = stm::Txn::forThisThread();
      if (T.isActive())
        return T.read(O, Slot);
      if (Opts.StrongBarriers && I.NeedsBarrier) {
        if (I.Agg != AggRole::None) {
          if (I.Agg == AggRole::Open) {
            Agg.emplace(O);
            AggObj = O;
          }
          assert(Agg && AggObj == O && "broken aggregation group");
          Word V = Agg->load(Slot);
          if (I.Agg == AggRole::Close) {
            Agg.reset();
            AggObj = nullptr;
          }
          return V;
        }
        return stm::ntRead(O, Slot);
      }
      return O->rawLoad(Slot, std::memory_order_acquire);
    };

    auto StoreSlot = [&](Object *O, uint32_t Slot, Word V, const Inst &I) {
      stm::Txn &T = stm::Txn::forThisThread();
      if (T.isActive()) {
        if (I.IsRefValue)
          T.writeRef(O, Slot, Object::fromWord(V));
        else
          T.write(O, Slot, V);
        return;
      }
      if (Opts.StrongBarriers && I.NeedsBarrier) {
        if (I.Agg != AggRole::None) {
          if (I.Agg == AggRole::Open) {
            Agg.emplace(O);
            AggObj = O;
          }
          assert(Agg && AggObj == O && "broken aggregation group");
          if (I.IsRefValue)
            Agg->storeRef(Slot, Object::fromWord(V));
          else
            Agg->store(Slot, V);
          if (I.Agg == AggRole::Close) {
            Agg.reset();
            AggObj = nullptr;
          }
          return;
        }
        if (I.IsRefValue)
          stm::ntWriteRef(O, Slot, Object::fromWord(V));
        else
          stm::ntWrite(O, Slot, V);
        return;
      }
      // Barrier removed (or weak mode). With DEA on, a reference store
      // into a public object must still publish the referee: barrier
      // *elision* removes the synchronization, never the publication, or
      // the private-bit invariant would break (DESIGN.md §4 note).
      if (Opts.Dea && I.IsRefValue && V != 0 &&
          !stm::TxRecord::isPrivate(
              O->txRecord().load(std::memory_order_acquire)))
        stm::publishObject(Object::fromWord(V));
      O->rawStore(Slot, V, std::memory_order_release);
    };

    for (;;) {
      assert(P.B < F.Blocks.size() && P.I < F.Blocks[P.B].Insts.size() &&
             "fell off the instruction stream");
      const Inst &I = F.Blocks[P.B].Insts[P.I];
      if (Opts.MaxSteps && ++TC.Steps > Opts.MaxSteps)
        fail(I.Where, "execution step budget exceeded");
      switch (I.K) {
      case Op::ConstInt:
        Regs[I.Dst] = static_cast<Word>(I.Imm);
        break;
      case Op::Move:
        Regs[I.Dst] = Regs[I.A];
        break;
      case Op::Bin: {
        int64_t A = static_cast<int64_t>(Regs[I.A]);
        int64_t B = static_cast<int64_t>(Regs[I.B]);
        int64_t R = 0;
        switch (I.BOp) {
        case BinOp::Add:
          R = static_cast<int64_t>(static_cast<uint64_t>(A) +
                                   static_cast<uint64_t>(B));
          break;
        case BinOp::Sub:
          R = static_cast<int64_t>(static_cast<uint64_t>(A) -
                                   static_cast<uint64_t>(B));
          break;
        case BinOp::Mul:
          R = static_cast<int64_t>(static_cast<uint64_t>(A) *
                                   static_cast<uint64_t>(B));
          break;
        case BinOp::Div:
          if (B == 0)
            fail(I.Where, "division by zero");
          if (A == INT64_MIN && B == -1)
            fail(I.Where, "integer overflow in division");
          R = A / B;
          break;
        case BinOp::Rem:
          if (B == 0)
            fail(I.Where, "remainder by zero");
          if (A == INT64_MIN && B == -1)
            fail(I.Where, "integer overflow in remainder");
          R = A % B;
          break;
        case BinOp::Lt:
          R = A < B;
          break;
        case BinOp::Le:
          R = A <= B;
          break;
        case BinOp::Gt:
          R = A > B;
          break;
        case BinOp::Ge:
          R = A >= B;
          break;
        case BinOp::Eq:
          R = Regs[I.A] == Regs[I.B];
          break;
        case BinOp::Ne:
          R = Regs[I.A] != Regs[I.B];
          break;
        case BinOp::And:
        case BinOp::Or:
          assert(false && "short-circuit ops are lowered to control flow");
          break;
        }
        Regs[I.Dst] = static_cast<Word>(R);
        break;
      }
      case Op::Neg:
        Regs[I.Dst] = static_cast<Word>(-static_cast<int64_t>(Regs[I.A]));
        break;
      case Op::Not:
        Regs[I.Dst] = Regs[I.A] == 0;
        break;
      case Op::NewObject:
        Regs[I.Dst] = Object::toWord(Heap.allocate(
            ClassTypes[I.Index].get(), stm::config().birthState()));
        break;
      case Op::NewArray: {
        int64_t Len = static_cast<int64_t>(Regs[I.A]);
        if (Len < 0)
          fail(I.Where, "negative array length");
        Regs[I.Dst] = Object::toWord(Heap.allocateArray(
            I.Index ? RefArrayType.get() : IntArrayType.get(),
            static_cast<uint32_t>(Len), stm::config().birthState()));
        break;
      }
      case Op::LoadField: {
        Object *O = NullCheck(Object::fromWord(Regs[I.A]), I);
        Regs[I.Dst] = LoadSlot(O, I.Index, I);
        break;
      }
      case Op::StoreField: {
        Object *O = NullCheck(Object::fromWord(Regs[I.A]), I);
        StoreSlot(O, I.Index, Regs[I.B], I);
        break;
      }
      case Op::LoadElem: {
        Object *O = NullCheck(Object::fromWord(Regs[I.A]), I);
        uint32_t Slot = BoundsCheck(O, Regs[I.B], I);
        Regs[I.Dst] = LoadSlot(O, Slot, I);
        break;
      }
      case Op::StoreElem: {
        Object *O = NullCheck(Object::fromWord(Regs[I.A]), I);
        uint32_t Slot = BoundsCheck(O, Regs[I.B], I);
        StoreSlot(O, Slot, Regs[I.C], I);
        break;
      }
      case Op::LoadStatic:
        Regs[I.Dst] = LoadSlot(StaticCells[I.Index], 0, I);
        break;
      case Op::StoreStatic:
        StoreSlot(StaticCells[I.Index], 0, Regs[I.A], I);
        break;
      case Op::ArrayLen: {
        Object *O = NullCheck(Object::fromWord(Regs[I.A]), I);
        Regs[I.Dst] = O->slotCount();
        break;
      }
      case Op::Call: {
        std::vector<Word> Args;
        Args.reserve(I.Args.size());
        for (RegId A : I.Args)
          Args.push_back(Regs[A]);
        Word R;
        checkNesting(TC, I.Where);
        R = execFunction(I.Index, std::move(Args));
        if (I.Imm)
          Regs[I.Dst] = R;
        break;
      }
      case Op::Spawn: {
        std::vector<Word> Args;
        Args.reserve(I.Args.size());
        const Function &Callee = M.Funcs[I.Index];
        for (size_t A = 0; A < I.Args.size(); ++A) {
          Word V = Regs[I.Args[A]];
          // Arguments become visible to the spawned thread: publish
          // private referees ("Thread objects become public prior to the
          // thread being spawned", §4).
          if (Opts.Dea && A < Callee.ParamIsRef.size() &&
              Callee.ParamIsRef[A] && V != 0)
            stm::publishObject(Object::fromWord(V));
          Args.push_back(V);
        }
        int64_t Handle = NextHandle.fetch_add(1);
        std::thread T(&Interp::threadMain, this, I.Index, std::move(Args));
        {
          std::lock_guard<std::mutex> Lock(ThreadsMutex);
          Threads.emplace(Handle, std::move(T));
        }
        Regs[I.Dst] = static_cast<Word>(Handle);
        break;
      }
      case Op::Join: {
        int64_t Handle = static_cast<int64_t>(Regs[I.A]);
        std::thread T;
        {
          std::lock_guard<std::mutex> Lock(ThreadsMutex);
          auto It = Threads.find(Handle);
          if (It == Threads.end())
            fail(I.Where, "join of unknown or already-joined thread");
          T = std::move(It->second);
          Threads.erase(It);
        }
        T.join();
        break;
      }
      case Op::Print:
        emitOutput(std::to_string(static_cast<int64_t>(Regs[I.A])) + "\n");
        break;
      case Op::Prints:
        emitOutput(M.Strings[I.Index]);
        break;
      case Op::Retry:
        stm::Txn::forThisThread().userRetry();
        break;
      case Op::AtomicBegin: {
        Pos Body{P.B, P.I + 1};
        BlockId EndBlock = I.Index;
        std::vector<Word> Snapshot = Regs;
        checkNesting(TC, I.Where);
        ++TC.AtomicDepth;
        bool Outermost = TC.AtomicDepth == 1;
        try {
          stm::Txn::run([&] {
            Regs = Snapshot; // Re-execution starts from a clean frame.
            if (Outermost)
              TC.PendingOut.clear();
            bool Returned = Run(Body);
            assert(!Returned && "return escaped an atomic region");
            (void)Returned;
          });
        } catch (...) {
          --TC.AtomicDepth;
          throw;
        }
        --TC.AtomicDepth;
        if (Outermost && !TC.PendingOut.empty()) {
          std::string Buffered;
          Buffered.swap(TC.PendingOut);
          emitOutput(Buffered);
        }
        // Resume after the AtomicEnd heading the end block.
        P = {EndBlock, 1};
        continue;
      }
      case Op::OpenBegin: {
        Pos Body{P.B, P.I + 1};
        BlockId EndBlock = I.Index;
        // No register snapshot: an open region commits independently and
        // never re-executes by itself; a conflict inside it unwinds (and
        // restarts) the whole enclosing transaction, whose own snapshot
        // restores the frame.
        checkNesting(TC, I.Where);
        stm::Txn::runOpenNested([&] {
          bool Returned = Run(Body);
          assert(!Returned && "return escaped an open region");
          (void)Returned;
        });
        P = {EndBlock, 1};
        continue;
      }
      case Op::AtomicEnd:
      case Op::OpenEnd:
        // Only reachable inside a region body (the resume paths above skip
        // them): the region is complete.
        return false;
      case Op::Jump:
        P = {I.Index, 0};
        continue;
      case Op::Branch:
        P = {Regs[I.A] != 0 ? I.Index : I.Index2, 0};
        continue;
      case Op::Ret:
        if (I.Imm)
          Ret = Regs[I.A];
        return true;
      }
      ++P.I;
    }
  };

  Run({0, 0});
}
