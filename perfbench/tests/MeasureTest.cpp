//===- perfbench/tests/MeasureTest.cpp - Benchmark bookkeeping tests ------===//
//
// Part of the SATM project, reproducing Shpeisman et al., PLDI 2007.
//
//===----------------------------------------------------------------------===//
//
// Build and run from the repository root:
//   cmake -S perfbench -B .bench_build/perfbench
//   cmake --build .bench_build/perfbench --target perfbench_test
//   .bench_build/perfbench/perfbench_test
//
//===----------------------------------------------------------------------===//

#include "Measure.h"

#include "support/Rng.h"

#include <gtest/gtest.h>

using namespace perfbench;

TEST(Percentile, HighestWithTenSamplesBeyond) {
  EXPECT_EQ(highestSupportedPercentile(0), 0);
  EXPECT_EQ(highestSupportedPercentile(19), 0);
  EXPECT_EQ(highestSupportedPercentile(20), 50);
  EXPECT_EQ(highestSupportedPercentile(100), 90);
  EXPECT_EQ(highestSupportedPercentile(999), 90);
  EXPECT_EQ(highestSupportedPercentile(1000), 99);
  EXPECT_EQ(highestSupportedPercentile(9999), 99);
  EXPECT_EQ(highestSupportedPercentile(10000), 99.9);
  EXPECT_EQ(highestSupportedPercentile(100000), 99.99);
  EXPECT_EQ(highestSupportedPercentile(100000000), 99.999);
}

TEST(Percentile, InterpolatesBetweenRanks) {
  std::vector<double> V = {1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(percentileSorted(V, 50), 2.5);
  EXPECT_DOUBLE_EQ(percentileSorted(V, 0), 1);
  EXPECT_DOUBLE_EQ(percentileSorted(V, 100), 4);
  EXPECT_DOUBLE_EQ(percentileSorted({}, 50), 0);
  Summary S = summarize({4, 1, 3, 2}, MedianBlockRank);
  EXPECT_EQ(S.N, 4u);
  EXPECT_EQ(S.Blocks, 1u);
  EXPECT_DOUBLE_EQ(S.P50, 2.5);
  EXPECT_EQ(S.TopPct, 0); // Four samples support no percentile.
  EXPECT_DOUBLE_EQ(median({5, 1, 3}), 3);
}

TEST(Percentile, BlockedPercentilesIgnoreABurstButNotACost) {
  // Ten blocks of 1000 samples, 1..1000 each; a burst delays the whole
  // fourth block and the seventh by 10 ms.
  std::vector<double> V;
  for (int B = 0; B < 10; ++B)
    for (int I = 1; I <= 1000; ++I)
      V.push_back(I + (B == 3 || B == 6 ? 10000 : 0));
  Summary S = summarize(V, QuietBlockRank, 1000);
  EXPECT_EQ(S.N, 10000u);
  EXPECT_EQ(S.Blocks, 10u);
  EXPECT_NEAR(S.P50, 500.5, 1e-9);
  EXPECT_NEAR(S.P90, 900.1, 1e-9);
  EXPECT_GT(S.P99, 10000); // The pooled tail is the burst's.
  EXPECT_EQ(S.TopPct, 99.9);
  EXPECT_GT(S.Top, 10990);
  // Two stalled blocks in ten move neither rank.
  EXPECT_NEAR(summarize(V, MedianBlockRank, 1000).P90, 900.1, 1e-9);
  // A cost paid by one request in ten, spread over the run, moves every
  // block's p90 and so the summary's.
  for (size_t I = 0; I < V.size(); I += 10)
    V[I] += 5000;
  EXPECT_GT(summarize(V, QuietBlockRank, 1000).P90, 1000);
  // A remainder smaller than a block joins the blocks, never stands alone.
  V.resize(10999 - 1000);
  EXPECT_EQ(summarize(V, QuietBlockRank, 1000).Blocks, 9u);
}

TEST(Spans, RequestChildrenTileTheRoot) {
  RequestTimes T{1000, 1700, 1750, 9000};
  EXPECT_EQ(T.late() + T.send() + T.rtt(), T.latency());
  SpanLog Log;
  Log.addRequest(7, T);
  ASSERT_EQ(Log.Spans.size(), 4u);
  std::vector<int64_t> Self = selfTimes(Log.Spans);
  EXPECT_EQ(Self[0], 0);
  EXPECT_EQ(Self[1], 700);
  EXPECT_EQ(Self[2], 50);
  EXPECT_EQ(Self[3], 7250);
  EXPECT_EQ(Self[1] + Self[2] + Self[3], Log.Spans[0].duration());
  for (const Span &S : Log.Spans)
    EXPECT_EQ(S.Request, 7u);
}

TEST(Spans, SelfTimeCountsOverlapOnceAndClipsChildren) {
  SpanLog Log;
  uint64_t Root = Log.add(0, 1, "root", 0, 100);
  uint64_t A = Log.add(Root, 1, "a", 10, 50);
  Log.add(Root, 1, "b", 40, 60);  // Overlaps a by 10.
  Log.add(Root, 1, "c", 90, 120); // Runs past the root's end.
  Log.add(A, 1, "a.inner", 20, 30);
  std::vector<int64_t> Self = selfTimes(Log.Spans);
  EXPECT_EQ(Self[0], 100 - 50 - 10); // Covered: [10,60) and [90,100).
  EXPECT_EQ(Self[1], 40 - 10);       // a minus its child.
  EXPECT_EQ(Self[2], 20);
  EXPECT_EQ(Self[3], 30);
  EXPECT_EQ(Self[4], 10);
}

TEST(Spans, IdsOfSeparateLogsDoNotCollide) {
  SpanLog A(uint64_t(1) << 48), B(uint64_t(2) << 48);
  uint64_t RA = A.add(0, 1, "x", 0, 10);
  uint64_t RB = B.add(0, 2, "x", 0, 20);
  B.add(RB, 2, "y", 0, 5);
  std::vector<Span> All = A.Spans;
  All.insert(All.end(), B.Spans.begin(), B.Spans.end());
  EXPECT_NE(RA, RB);
  std::vector<int64_t> Self = selfTimes(All);
  EXPECT_EQ(Self[0], 10);
  EXPECT_EQ(Self[1], 15);
}

TEST(Failures, OutcomesAreNotFailures) {
  FailureTally T;
  T.add(Outcome::Ok, 90);
  T.add(Outcome::NotFound, 3);
  T.add(Outcome::Mismatch, 2);
  EXPECT_EQ(T.attempted(), 95u);
  EXPECT_EQ(T.failed(), 0u);
  EXPECT_EQ(T.ratio(), 0.0);

  T.add(Outcome::Overloaded);
  T.add(Outcome::DeadlineExceeded);
  T.add(Outcome::DurabilityLost);
  T.add(Outcome::ConnectionLost);
  T.add(Outcome::NoAnswer);
  EXPECT_EQ(T.attempted(), 100u);
  EXPECT_EQ(T.failed(), 5u);
  EXPECT_DOUBLE_EQ(T.ratio(), 0.05);

  FailureTally U;
  U.add(Outcome::Refused, 4);
  U += T;
  EXPECT_EQ(U.attempted(), 104u);
  EXPECT_EQ(U.failed(), 9u);
  EXPECT_EQ(FailureTally().ratio(), 0.0);
}

TEST(OpenLoop, ScheduleIsSeededAndAtTheRate) {
  satm::Rng A(42), B(42);
  auto SA = poissonSchedule(10000, 2000000000, [&] { return A.nextDouble(); });
  auto SB = poissonSchedule(10000, 2000000000, [&] { return B.nextDouble(); });
  EXPECT_EQ(SA, SB);
  EXPECT_NEAR(double(SA.size()), 20000, 600); // ~4 sigma.
  EXPECT_TRUE(std::is_sorted(SA.begin(), SA.end()));
  EXPECT_GE(SA.front(), 0);
  EXPECT_LT(SA.back(), 2000000000);
}

TEST(OpenLoop, StallIsChargedToEveryRequestDueDuringIt) {
  // Requests due at 0, 1 and 2 ms; the generator stalls until 5 ms, then
  // sends all three, each answered 100 us after its send.
  std::vector<RequestTimes> Rs;
  for (int64_t Due : {0, 1000000, 2000000}) {
    RequestTimes T;
    T.Sched = Due;
    T.SendStart = 5000000;
    T.SendEnd = 5000000;
    T.Done = 5100000;
    Rs.push_back(T);
  }
  EXPECT_EQ(Rs[0].latency(), 5100000);
  EXPECT_EQ(Rs[1].latency(), 4100000);
  EXPECT_EQ(Rs[2].latency(), 3100000);
  EXPECT_EQ(Rs[2].late(), 3000000);
  for (const RequestTimes &T : Rs) {
    EXPECT_EQ(T.rtt(), 100000); // What a send-timed client would report.
    EXPECT_EQ(T.late() + T.send() + T.rtt(), T.latency());
  }
}
