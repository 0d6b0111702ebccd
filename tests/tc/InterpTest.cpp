//===- tests/tc/InterpTest.cpp - TranC interpreter tests -----------------===//
//
// Part of the SATM project, reproducing Shpeisman et al., PLDI 2007.
//
//===----------------------------------------------------------------------===//

#include "tc/Interp.h"
#include "tc/Pipeline.h"

#include "gtest/gtest.h"

using namespace satm::tc;

namespace {

/// Compiles and runs \p Src (strong barriers, no opts by default) and
/// returns the program output; fails the test on compile/runtime errors.
std::string runProgram(const std::string &Src, Interp::Options O = {},
                       PassOptions PO = {}) {
  Diag D;
  ir::Module M = compile(Src, PO, D);
  EXPECT_FALSE(D.hasErrors()) << D.str();
  if (D.hasErrors())
    return "<compile error>";
  Interp I(M, O);
  bool Ok = I.run();
  EXPECT_TRUE(Ok) << I.error();
  return I.output();
}

std::string runExpectError(const std::string &Src) {
  Diag D;
  ir::Module M = compile(Src, {}, D);
  EXPECT_FALSE(D.hasErrors()) << D.str();
  Interp I(M, {});
  EXPECT_FALSE(I.run());
  return I.error();
}

TEST(Interp, ArithmeticAndPrint) {
  EXPECT_EQ(runProgram("fn main() { print(2 + 3 * 4 - 1); print(-7 / 2); "
                       "print(7 % 3); }"),
            "13\n-3\n1\n");
}

TEST(Interp, BoolsAndShortCircuit) {
  EXPECT_EQ(runProgram(R"(
    fn sideEffect(): bool { print(99); return true; }
    fn main() {
      if (false && sideEffect()) { print(1); } else { print(2); }
      if (true || sideEffect()) { print(3); }
      print(!false);
    }
  )"),
            "2\n3\n1\n");
}

TEST(Interp, ControlFlow) {
  EXPECT_EQ(runProgram(R"(
    fn main() {
      var i = 0;
      var sum = 0;
      while (i < 10) { sum = sum + i; i = i + 1; }
      if (sum == 45) { prints("ok\n"); } else { prints("bad\n"); }
    }
  )"),
            "ok\n");
}

TEST(Interp, FunctionsAndRecursion) {
  EXPECT_EQ(runProgram(R"(
    fn fib(int n): int {
      if (n < 2) { return n; }
      return fib(n - 1) + fib(n - 2);
    }
    fn main() { print(fib(15)); }
  )"),
            "610\n");
}

TEST(Interp, ObjectsAndFields) {
  EXPECT_EQ(runProgram(R"(
    class Point { int x; int y; }
    fn main() {
      var p = new Point();
      p.x = 3;
      p.y = p.x * 2;
      print(p.x + p.y);
    }
  )"),
            "9\n");
}

TEST(Interp, LinkedListTraversal) {
  EXPECT_EQ(runProgram(R"(
    class Node { int val; Node next; }
    fn main() {
      var head: Node = null;
      var i = 0;
      while (i < 5) {
        var n = new Node();
        n.val = i;
        n.next = head;
        head = n;
        i = i + 1;
      }
      var sum = 0;
      var cur = head;
      while (cur != null) { sum = sum + cur.val; cur = cur.next; }
      print(sum);
    }
  )"),
            "10\n");
}

TEST(Interp, Arrays) {
  EXPECT_EQ(runProgram(R"(
    fn main() {
      var a = new int[8];
      var i = 0;
      while (i < len(a)) { a[i] = i * i; i = i + 1; }
      print(a[7]);
      print(len(a));
    }
  )"),
            "49\n8\n");
}

TEST(Interp, RefArrays) {
  EXPECT_EQ(runProgram(R"(
    class Box { int v; }
    fn main() {
      var boxes = new Box[3];
      var i = 0;
      while (i < 3) {
        boxes[i] = new Box();
        boxes[i].v = i + 10;
        i = i + 1;
      }
      print(boxes[0].v + boxes[1].v + boxes[2].v);
    }
  )"),
            "33\n");
}

TEST(Interp, StaticsAcrossFunctions) {
  EXPECT_EQ(runProgram(R"(
    static int total;
    fn add(int n) { total = total + n; }
    fn main() { add(4); add(5); print(total); }
  )"),
            "9\n");
}

TEST(Interp, AtomicBlockSingleThread) {
  EXPECT_EQ(runProgram(R"(
    static int x;
    fn main() {
      atomic { x = 1; x = x + 1; print(x); }
      print(x);
    }
  )"),
            "2\n2\n");
}

TEST(Interp, NestedAtomic) {
  EXPECT_EQ(runProgram(R"(
    static int x;
    fn main() {
      atomic {
        x = 1;
        atomic { x = x + 10; }
        x = x + 100;
      }
      print(x);
    }
  )"),
            "111\n");
}

TEST(Interp, AtomicCallsFunction) {
  EXPECT_EQ(runProgram(R"(
    static int x;
    fn bump() { x = x + 1; }
    fn main() { atomic { bump(); bump(); } print(x); }
  )"),
            "2\n");
}

TEST(Interp, SpawnJoinCounter) {
  // The canonical strong-atomicity smoke test: concurrent transactional
  // increments never lose updates.
  EXPECT_EQ(runProgram(R"(
    static int counter;
    fn worker(int n) {
      var i = 0;
      while (i < n) {
        atomic { counter = counter + 1; }
        i = i + 1;
      }
    }
    fn main() {
      var t1 = spawn worker(500);
      var t2 = spawn worker(500);
      var t3 = spawn worker(500);
      join(t1); join(t2); join(t3);
      print(counter);
    }
  )"),
            "1500\n");
}

TEST(Interp, RetryWaitsForFlag) {
  EXPECT_EQ(runProgram(R"(
    static int flag;
    static int data;
    fn producer() {
      atomic { data = 42; flag = 1; }
    }
    fn main() {
      var t = spawn producer();
      var seen = 0;
      atomic {
        if (flag == 0) { retry; }
        seen = data;
      }
      print(seen);
      join(t);
    }
  )"),
            "42\n");
}

TEST(Interp, TransactionalPrintsNotDuplicated) {
  // Prints inside atomic regions are buffered to commit, so even aborted
  // re-executions print exactly once.
  std::string Out = runProgram(R"(
    static int c;
    fn worker() {
      var i = 0;
      while (i < 200) { atomic { c = c + 1; } i = i + 1; }
    }
    fn main() {
      var t = spawn worker();
      var i = 0;
      while (i < 200) { atomic { c = c + 1; } i = i + 1; }
      join(t);
      atomic { prints("done "); print(c); }
    }
  )");
  EXPECT_EQ(Out, "done 400\n");
}

TEST(Interp, NullDereferenceFails) {
  std::string E = runExpectError(R"(
    class C { int x; }
    fn main() { var c: C = null; print(c.x); }
  )");
  EXPECT_NE(E.find("null dereference"), std::string::npos) << E;
}

TEST(Interp, BoundsCheckFails) {
  std::string E =
      runExpectError("fn main() { var a = new int[2]; print(a[5]); }");
  EXPECT_NE(E.find("out of bounds"), std::string::npos) << E;
}

TEST(Interp, DivisionByZeroFails) {
  std::string E = runExpectError("fn main() { var z = 0; print(1 / z); }");
  EXPECT_NE(E.find("division by zero"), std::string::npos) << E;
}

TEST(Interp, NegativeArrayLengthFails) {
  std::string E =
      runExpectError("fn main() { var n = 0 - 3; var a = new int[n]; }");
  EXPECT_NE(E.find("negative array length"), std::string::npos) << E;
}

TEST(Interp, StepBudgetStopsRunaways) {
  Diag D;
  ir::Module M = compile("fn main() { while (true) {} }", {}, D);
  ASSERT_FALSE(D.hasErrors());
  Interp::Options O;
  O.MaxSteps = 10000;
  Interp I(M, O);
  EXPECT_FALSE(I.run());
  EXPECT_NE(I.error().find("step budget"), std::string::npos);
}

TEST(Interp, StepBudgetIsPerRun) {
  // Each run takes about half the budget; four runs in one thread would
  // exceed it if the count carried over between runs.
  Diag D;
  ir::Module M = compile(
      "fn main() { var i = 0; while (i < 1000) { i = i + 1; } }", {}, D);
  ASSERT_FALSE(D.hasErrors()) << D.str();
  Interp::Options O;
  O.MaxSteps = 10000;
  for (int Run = 0; Run < 4; ++Run) {
    Interp I(M, O);
    EXPECT_TRUE(I.run()) << "run " << Run << ": " << I.error();
  }
}

/// The same concurrency program must produce identical results under every
/// execution mode (weak is fine here: all shared accesses are inside
/// atomic) and pass configuration.
struct ModeCase {
  bool Strong;
  bool Dea;
  bool Opts;
};

class InterpModeSweep : public ::testing::TestWithParam<ModeCase> {};

TEST_P(InterpModeSweep, TransactionalCounterAllModes) {
  ModeCase C = GetParam();
  Interp::Options O;
  O.StrongBarriers = C.Strong;
  O.Dea = C.Dea;
  PassOptions PO;
  if (C.Opts) {
    PO.IntraprocEscape = true;
    PO.Aggregate = true;
    PO.Nait = true;
    PO.ThreadLocal = true;
  }
  EXPECT_EQ(runProgram(R"(
    static int acc;
    fn worker(int n) {
      var i = 0;
      while (i < n) { atomic { acc = acc + 2; } i = i + 1; }
    }
    fn main() {
      var t = spawn worker(300);
      var i = 0;
      while (i < 300) { atomic { acc = acc + 1; } i = i + 1; }
      join(t);
      print(acc);
    }
  )",
                       O, PO),
            "900\n");
}

INSTANTIATE_TEST_SUITE_P(
    Modes, InterpModeSweep,
    ::testing::Values(ModeCase{false, false, false},
                      ModeCase{true, false, false},
                      ModeCase{true, true, false},
                      ModeCase{true, false, true},
                      ModeCase{true, true, true}),
    [](const ::testing::TestParamInfo<ModeCase> &Info) {
      std::string N = Info.param.Strong ? "strong" : "weak";
      if (Info.param.Dea)
        N += "_dea";
      if (Info.param.Opts)
        N += "_opts";
      return N;
    });

TEST(Interp, DeaKeepsPrivateObjectsPrivate) {
  // Single-threaded object churn under DEA: everything stays on the
  // private fast path and the result is unchanged.
  Interp::Options O;
  O.Dea = true;
  EXPECT_EQ(runProgram(R"(
    class Acc { int v; }
    fn main() {
      var total = 0;
      var i = 0;
      while (i < 1000) {
        var a = new Acc();
        a.v = i;
        total = total + a.v;
        i = i + 1;
      }
      print(total);
    }
  )",
                       O),
            "499500\n");
}

TEST(Interp, PublicationViaStaticUnderDea) {
  // A private object published through a static must be visible to a
  // spawned thread (the §4 publication path end to end).
  Interp::Options O;
  O.Dea = true;
  EXPECT_EQ(runProgram(R"(
    class Box { int v; }
    static Box shared;
    fn reader() {
      var got = 0;
      atomic {
        if (shared == null) { retry; }
        got = shared.v;
      }
      print(got);
    }
    fn main() {
      var t = spawn reader();
      var b = new Box();
      b.v = 77;
      shared = b;
      join(t);
    }
  )",
                       O),
            "77\n");
}

} // namespace
