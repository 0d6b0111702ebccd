//===- tests/tc/InterpStressTest.cpp - Interpreter stress tests ----------===//
//
// Part of the SATM project, reproducing Shpeisman et al., PLDI 2007.
//
//===----------------------------------------------------------------------===//
//
// Heavier end-to-end scenarios: contended transactional data structures,
// runtime aggregation groups under strong atomicity, deep and unbounded
// recursion, producer/consumer with retry, and the full optimization
// pipeline on concurrent programs.
//
//===----------------------------------------------------------------------===//

#include "tc/Interp.h"
#include "tc/Pipeline.h"

#include "gtest/gtest.h"

#include <cstdlib>
#include <string>

using namespace satm::tc;

namespace {

/// SATM_FAST_TESTS=1 scales the iteration-heavy scenarios down for CI; the
/// full counts remain the default for local soak runs.
int scaled(int Full, int Fast) {
  const char *Env = std::getenv("SATM_FAST_TESTS");
  return Env && *Env && *Env != '0' ? Fast : Full;
}

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

PassOptions fullOpts() {
  PassOptions PO;
  PO.ScalarOpts = PO.IntraprocEscape = PO.Aggregate = PO.Nait =
      PO.ThreadLocal = true;
  return PO;
}

TEST(InterpStress, ContendedTransactionalStack) {
  // Two pushers and one drainer hammer a shared stack; the grand total
  // must be exact regardless of interleaving and abort storms.
  const char *Src = R"(
    class Node { Node next; int val; }
    static Node top;
    static int pushed;
    static int drained;

    fn push(int v) {
      var n = new Node();
      n.val = v;
      atomic { n.next = top; top = n; pushed = pushed + v; }
    }

    fn pusher(int base, int count) {
      var i = 0;
      while (i < count) { push(base + i); i = i + 1; }
    }

    fn drainer(int expect) {
      var got = 0;
      while (got < expect) {
        var v = 0 - 1;
        atomic {
          if (top != null) {
            v = top.val;
            top = top.next;
            drained = drained + v;
          }
        }
        if (v >= 0) { got = got + 1; }
      }
    }

  )";
  int N = scaled(300, 60);
  std::string Main = "fn main() {"
                     "  var p1 = spawn pusher(0, " +
                     std::to_string(N) +
                     ");"
                     "  var p2 = spawn pusher(1000, " +
                     std::to_string(N) +
                     ");"
                     "  var d = spawn drainer(" +
                     std::to_string(2 * N) +
                     ");"
                     "  join(p1); join(p2); join(d);"
                     "  atomic {"
                     "    if (pushed == drained) { prints(\"balanced\\n\"); }"
                     "    else { prints(\"IMBALANCE\\n\"); }"
                     "  }"
                     "}";
  Interp::Options Strong;
  Strong.Dea = true;
  EXPECT_EQ(runProgram(Src + Main, Strong, fullOpts()), "balanced\n");
}

TEST(InterpStress, AggregationGroupsExecuteUnderStrong) {
  // Force aggregation groups (same-object runs) and execute them on the
  // runtime with barriers: the AggregatedWriter path in the interpreter.
  const char *Src = R"(
    class Vec { int x; int y; int z; }
    static Vec g;
    fn main() {
      g = new Vec();
      var v = g;
      v.x = 1;
      v.y = v.x + 1;
      v.z = v.y + 1;
      print(v.x + v.y + v.z);
    }
  )";
  PassOptions PO;
  PO.Aggregate = true;
  Diag D;
  ir::Module M = compile(Src, PO, D);
  ASSERT_FALSE(D.hasErrors());
  // There must actually be a group, otherwise this test checks nothing.
  bool SawOpen = false;
  for (const auto &F : M.Funcs)
    for (const auto &B : F.Blocks)
      for (const auto &I : B.Insts)
        SawOpen |= I.Agg == ir::AggRole::Open;
  ASSERT_TRUE(SawOpen);
  Interp I(M, {});
  ASSERT_TRUE(I.run()) << I.error();
  EXPECT_EQ(I.output(), "6\n");
}

TEST(InterpStress, DeepRecursion) {
  int N = scaled(5000, 1000);
  EXPECT_EQ(runProgram(R"(
    fn depth(int n): int {
      if (n == 0) { return 0; }
      return 1 + depth(n - 1);
    }
    fn main() { print(depth()" +
                       std::to_string(N) + ")); }"),
            std::to_string(N) + "\n");
}

TEST(InterpStress, UnboundedRecursionIsARuntimeError) {
  // A recursion far past the per-thread nesting limit must fail the run
  // with a runtime error rather than overflow the host stack, also when
  // every level opens an atomic region (each region nests host frames).
  const std::string Depth = R"(
    fn depth(int n): int {
      if (n == 0) { return 0; }
      return 1 + depth(n - 1);
    }
    fn atomicDepth(int n): int {
      if (n == 0) { return 0; }
      var r = 0;
      atomic { r = 1 + atomicDepth(n - 1); }
      return r;
    }
  )";
  for (const char *Call : {"depth(1000000)", "atomicDepth(1000000)"}) {
    Diag D;
    ir::Module M = compile(
        Depth + "fn main() { print(" + Call + "); }", {}, D);
    ASSERT_FALSE(D.hasErrors()) << D.str();
    Interp I(M, {});
    EXPECT_FALSE(I.run()) << Call;
    EXPECT_NE(I.error().find("nesting depth limit"), std::string::npos)
        << Call << ": " << I.error();
  }

  // The failed runs unwound their depth count: this thread still recurses.
  EXPECT_EQ(runProgram(Depth + "fn main() { print(depth(1000)); }"),
            "1000\n");
}

TEST(InterpStress, RetryBasedBoundedBuffer) {
  // A 1-slot mailbox with retry-based flow control in both directions.
  const char *Src = R"(
    static int full;
    static int value;
    static int sum;

    fn producer(int n) {
      var i = 1;
      while (i <= n) {
        atomic {
          if (full == 1) { retry; }
          value = i;
          full = 1;
        }
        i = i + 1;
      }
    }

    fn consumer(int n) {
      var got = 0;
      while (got < n) {
        atomic {
          if (full == 0) { retry; }
          sum = sum + value;
          full = 0;
        }
        got = got + 1;
      }
    }

    fn main() {
      var p = spawn producer(100);
      var c = spawn consumer(100);
      join(p); join(c);
      print(sum);
    }
  )";
  EXPECT_EQ(runProgram(Src), "5050\n");
}

TEST(InterpStress, NestedAtomicWithCallsAndAborts) {
  // Nested regions spanning function calls; inner work must commit or
  // roll back with the outer transaction as a unit.
  const char *Src = R"(
    static int x;
    static int attempts;
    fn bumpTwice() {
      atomic { x = x + 1; atomic { x = x + 1; } }
    }
    fn main() {
      atomic {
        attempts = attempts + 1;
        bumpTwice();
        x = x * 10;
      }
      print(x);
    }
  )";
  EXPECT_EQ(runProgram(Src), "20\n");
}

TEST(InterpStress, FullPipelineOnConcurrentGraphProgram) {
  const char *Src = R"(
    class Cell { int v; Cell next; }
    static Cell ring;
    static int checksum;

    fn buildRing(int n) {
      var first = new Cell();
      first.v = 0;
      var cur = first;
      var i = 1;
      while (i < n) {
        var c = new Cell();
        c.v = i;
        cur.next = c;
        cur = c;
        i = i + 1;
      }
      cur.next = first;
      atomic { ring = first; }
    }

    fn rotator(int steps) {
      var i = 0;
      while (i < steps) {
        atomic { if (ring != null) { ring = ring.next; } }
        i = i + 1;
      }
    }

    fn summer(int rounds) {
      var i = 0;
      while (i < rounds) {
        atomic {
          if (ring != null) { checksum = checksum + ring.v; }
        }
        i = i + 1;
      }
    }

  )";
  int N = scaled(500, 100);
  std::string Main = "fn main() {"
                     "  buildRing(16);"
                     "  var r = spawn rotator(" +
                     std::to_string(N) +
                     ");"
                     "  var s = spawn summer(" +
                     std::to_string(N) +
                     ");"
                     "  join(r); join(s);"
                     "  atomic {"
                     "    if (checksum >= 0 && ring != null) { prints(\"ok\\n\"); }"
                     "  }"
                     "}";
  for (bool Dea : {false, true}) {
    Interp::Options O;
    O.Dea = Dea;
    EXPECT_EQ(runProgram(Src + Main, O, fullOpts()), "ok\n");
  }
}

TEST(InterpStress, ManyShortLivedThreads) {
  const char *Src = R"(
    static int done;
    fn tick() { atomic { done = done + 1; } }
    fn main() {
      var i = 0;
      while (i < 40) {
        var t = spawn tick();
        join(t);
        i = i + 1;
      }
      print(done);
    }
  )";
  EXPECT_EQ(runProgram(Src), "40\n");
}

} // namespace
