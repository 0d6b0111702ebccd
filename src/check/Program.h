//===- check/Program.h - Step-list programs for the explorer ---*- C++ -*-===//
//
// Part of the SATM project, reproducing Shpeisman et al., PLDI 2007.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The input language of the SchedExplorer (src/check): a small
/// multi-threaded program expressed as per-thread lists of *segments*,
/// where a segment is either a single non-transactional step or an atomic
/// region containing several transactional steps. Steps read and write
/// word-sized slots of a fixed set of heap objects, move values through
/// per-thread registers, may be guarded on a register value, and may force
/// one abort-and-reexecute of the enclosing region (the "/*abort*/" arms of
/// the paper's Figure 3 examples).
///
/// The same step representation is interpreted twice: by the cooperative
/// runner in Explorer.cpp against the real STM runtime, and by the
/// brute-force sequential reference executor in Oracle.cpp that defines
/// which outcomes are serializable. Reference values are encoded as
/// refWord(objectIndex) in the oracle and as real Object addresses in the
/// runner; the runner normalizes observed addresses back to refWord before
/// comparing outcomes, so the two interpretations agree exactly.
///
//===----------------------------------------------------------------------===//

#ifndef SATM_CHECK_PROGRAM_H
#define SATM_CHECK_PROGRAM_H

#include "stm/TxRecord.h"

#include <string>
#include <vector>

namespace satm {
namespace check {

using stm::Word;

/// Object references are encoded as RefBase + objectIndex in the oracle and
/// in normalized outcomes/traces. Program constants must stay below RefBase
/// so scalars and references can never collide.
inline constexpr Word RefBase = Word(1) << 32;

/// The normalized encoding of a reference to object \p Obj.
inline constexpr Word refWord(int Obj) { return RefBase + Word(Obj); }

/// True iff \p V is a normalized reference (refWord of some object of a
/// program with \p ObjectCount objects).
inline constexpr bool isRefWord(Word V, size_t ObjectCount) {
  return V >= RefBase && V < RefBase + ObjectCount;
}

/// A step's value source: a constant, a register (plus an additive
/// constant, covering the `x = r + 1` shapes of the litmus programs), or a
/// reference to one of the program's objects.
struct Operand {
  enum class Kind : uint8_t { Const, Reg, ObjRef };
  Kind K = Kind::Const;
  Word Value = 0; ///< Const: the value.
  int Reg = -1;   ///< Reg: source register index.
  Word Add = 0;   ///< Reg: added to the register value.
  int Obj = -1;   ///< ObjRef: referenced object index.
};

inline Operand constant(Word V) {
  Operand O;
  O.K = Operand::Kind::Const;
  O.Value = V;
  return O;
}

inline Operand reg(int R, Word Add = 0) {
  Operand O;
  O.K = Operand::Kind::Reg;
  O.Reg = R;
  O.Add = Add;
  return O;
}

inline Operand objRef(int Obj) {
  Operand O;
  O.K = Operand::Kind::ObjRef;
  O.Obj = Obj;
  return O;
}

/// Optional per-step guard: the step executes only if register \p Reg
/// compares (==/!=) against \p Rhs. Guards read only thread-local
/// registers, so evaluating one is not a scheduling-visible action.
struct Guard {
  int Reg = -1; ///< -1: unguarded.
  bool Equal = true;
  Operand Rhs;
};

/// One step of a thread program.
struct Step {
  enum class Op : uint8_t {
    Read,      ///< Regs[Dst] = target[Slot]
    Write,     ///< target[Slot] = eval(Src)
    AbortOnce, ///< First execution only: abort and re-execute the region.
  };
  Op Kind = Op::Read;
  int Obj = -1;    ///< Direct target object index, or
  int ObjReg = -1; ///< register holding a reference to the target object.
  uint32_t Slot = 0;
  int Dst = -1; ///< Read: destination register.
  Operand Src;  ///< Write: stored value.
  Guard G;
};

inline Step readStep(int Obj, uint32_t Slot, int Dst) {
  Step S;
  S.Kind = Step::Op::Read;
  S.Obj = Obj;
  S.Slot = Slot;
  S.Dst = Dst;
  return S;
}

/// Read through a register-held reference (e.g. `r2 = r1.val`). A register
/// that does not hold a valid reference makes the step a no-op, in both the
/// runner and the oracle.
inline Step readIndStep(int ObjReg, uint32_t Slot, int Dst) {
  Step S;
  S.Kind = Step::Op::Read;
  S.ObjReg = ObjReg;
  S.Slot = Slot;
  S.Dst = Dst;
  return S;
}

inline Step writeStep(int Obj, uint32_t Slot, Operand Src) {
  Step S;
  S.Kind = Step::Op::Write;
  S.Obj = Obj;
  S.Slot = Slot;
  S.Src = Src;
  return S;
}

inline Step writeIndStep(int ObjReg, uint32_t Slot, Operand Src) {
  Step S;
  S.Kind = Step::Op::Write;
  S.ObjReg = ObjReg;
  S.Slot = Slot;
  S.Src = Src;
  return S;
}

inline Step abortOnceStep() {
  Step S;
  S.Kind = Step::Op::AbortOnce;
  return S;
}

inline Step guarded(Step S, int Reg, bool Equal, Operand Rhs) {
  S.G.Reg = Reg;
  S.G.Equal = Equal;
  S.G.Rhs = Rhs;
  return S;
}

/// A scheduling unit of a thread: one non-transactional step, or an atomic
/// region of several steps.
struct Segment {
  bool IsTxn = false;
  /// Non-transactional multi-step segment executed under one aggregated
  /// barrier (§6, Figure 14): all steps must target the same object. The
  /// runner uses AggregatedWriter (any write present) or aggregatedRead
  /// (read-only) under the Strong regime and falls back to per-step
  /// barriers elsewhere; the oracle needs no special case, since it
  /// already executes every segment atomically.
  bool IsAggregated = false;
  /// Snapshot transaction (Txn::runSnapshot): reads come from the pinned
  /// multi-version snapshot plane, writes commit under first-committer-
  /// wins. The runner requires a variant with SnapshotPlane set; programs
  /// must write snapshot-read objects only transactionally (the plane does
  /// not order non-transactional stores, see stm/Snapshot.h).
  bool IsSnapshot = false;
  std::vector<Step> Steps;
};

inline Segment nt(Step S) {
  Segment Seg;
  Seg.Steps.push_back(S);
  return Seg;
}

inline Segment txn(std::vector<Step> Steps) {
  Segment Seg;
  Seg.IsTxn = true;
  Seg.Steps = std::move(Steps);
  return Seg;
}

/// An aggregated non-transactional segment (§6): every step must address
/// one object, directly (no register-held references, no AbortOnce).
inline Segment agg(std::vector<Step> Steps) {
  Segment Seg;
  Seg.IsAggregated = true;
  Seg.Steps = std::move(Steps);
  return Seg;
}

/// A snapshot transaction segment (multi-version read plane, DESIGN.md §10).
inline Segment snap(std::vector<Step> Steps) {
  Segment Seg;
  Seg.IsTxn = true;
  Seg.IsSnapshot = true;
  Seg.Steps = std::move(Steps);
  return Seg;
}

/// One shared heap object of the explored program.
struct ObjectSpec {
  std::string Name;
  uint32_t Slots = 1;
  std::vector<uint32_t> RefSlots; ///< Slots holding references.
  std::vector<Word> Init;         ///< Initial values (refWord() for refs);
                                  ///< missing entries default to 0.
};

/// A runtime-configuration variant to explore the program under. All
/// knobs are *legal implementation freedoms* of the paper's STMs (write-back
/// order per §2.3, versioning granularity per §2.4, contention management
/// per §3.2 — a CM may delay or abort either side of any conflict), so the
/// explorer treats them as an extra nondeterminism axis alongside
/// scheduling.
struct ConfigVariant {
  uint32_t LogGranularitySlots = 1;
  bool ReverseWriteback = false;
  /// Mirrors Config::IrrevocableAfterAborts: 0 leaves the escalation
  /// ladder off; N makes the Nth consecutive conflict abort of an eager
  /// transaction escalate it to serial-irrevocable mode.
  uint32_t IrrevocableAfterAborts = 0;
  /// Mirrors Config::KarmaPriority.
  bool KarmaPriority = false;
  /// Mirrors Config::SnapshotEnabled: committing writers publish version
  /// records and snapshot segments read the multi-version plane. Required
  /// for programs containing snap() segments.
  bool SnapshotPlane = false;
  /// Mirrors Config::QuiesceOnCommit (§3.4 privatization safety).
  bool QuiesceOnCommit = false;
};

std::string variantName(const ConfigVariant &V);

/// A complete explorer input.
struct Program {
  std::string Name;
  std::vector<ObjectSpec> Objects;
  std::vector<std::vector<Segment>> Threads;
  uint32_t RegCount = 8;     ///< Registers per thread.
  std::vector<Word> RegInit; ///< Initial register values (missing: 0).
  std::vector<ConfigVariant> Variants = {ConfigVariant{}};
};

/// Evaluates \p O against \p Regs. \p Ref maps an object index to that
/// interpretation's reference encoding (refWord in the oracle, the real
/// object address in the runner).
template <typename RefFn>
Word evalOperand(const Operand &O, const std::vector<Word> &Regs, RefFn Ref) {
  switch (O.K) {
  case Operand::Kind::Const:
    return O.Value;
  case Operand::Kind::Reg:
    return Regs[O.Reg] + O.Add;
  case Operand::Kind::ObjRef:
    return Ref(O.Obj);
  }
  return 0;
}

template <typename RefFn>
bool guardPasses(const Guard &G, const std::vector<Word> &Regs, RefFn Ref) {
  if (G.Reg < 0)
    return true;
  Word L = Regs[G.Reg];
  Word R = evalOperand(G.Rhs, Regs, Ref);
  return G.Equal ? L == R : L != R;
}

} // namespace check
} // namespace satm

#endif // SATM_CHECK_PROGRAM_H
