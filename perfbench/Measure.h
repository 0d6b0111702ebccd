//===- perfbench/Measure.h - Measurement arithmetic of the benchmark -*- C++ -*-===//
//
// Part of the SATM project, reproducing Shpeisman et al., PLDI 2007.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark driver's own bookkeeping, kept free of any SATM type so
/// tests/MeasureTest.cpp can check it in isolation:
///
///  - percentiles of raw samples, their median or lower decile over
///    blocks of the sample, and the highest percentile a sample supports
///    (at least ten samples beyond it);
///  - the failure ledger behind `failed_ratio`;
///  - the open-loop schedule (Poisson arrivals) and the per-request time
///    decomposition measured from each request's *scheduled* arrival;
///  - spans (name, start, end, parent, request id) and their self times.
///
//===----------------------------------------------------------------------===//

#ifndef SATM_PERFBENCH_MEASURE_H
#define SATM_PERFBENCH_MEASURE_H

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

namespace perfbench {

//===----------------------------------------------------------------------===//
// Percentiles.
//===----------------------------------------------------------------------===//

/// Percentile \p P (0..100) of \p Sorted (ascending) by linear
/// interpolation between the two nearest ranks. 0 for an empty sample.
inline double percentileSorted(const std::vector<double> &Sorted, double P) {
  if (Sorted.empty())
    return 0;
  double Pos = P / 100.0 * double(Sorted.size() - 1);
  size_t Lo = size_t(Pos);
  if (Lo + 1 >= Sorted.size())
    return Sorted.back();
  double Frac = Pos - double(Lo);
  return Sorted[Lo] + (Sorted[Lo + 1] - Sorted[Lo]) * Frac;
}

/// Samples lying strictly beyond percentile \p P of \p N samples.
inline double samplesBeyond(uint64_t N, double P) {
  return double(N) * (100.0 - P) / 100.0;
}

/// The highest of p50, p90, p99, p99.9, p99.99, p99.999 with at least ten
/// samples beyond it; 0 when even p50 is unsupported (fewer than 20
/// samples).
inline double highestSupportedPercentile(uint64_t N) {
  static const double Candidates[] = {99.999, 99.99, 99.9, 99, 90, 50};
  for (double P : Candidates)
    if (samplesBeyond(N, P) >= 10.0 - 1e-9)
      return P;
  return 0;
}

/// Median of \p V (0 when empty).
inline double median(std::vector<double> V) {
  std::sort(V.begin(), V.end());
  return percentileSorted(V, 50);
}

/// Summary of one latency sample.
struct Summary {
  uint64_t N = 0;      ///< Samples.
  uint64_t Blocks = 0; ///< Blocks the sample was cut into.
  /// A percentile, over blocks, of each block's p50 and p90.
  double P50 = 0, P90 = 0;
  double P99 = 0;             ///< p99 of the whole sample.
  double TopPct = 0, Top = 0; ///< Highest supported percentile, pooled.
};

/// Samples per block of summarize(): p90 of a block has 25 beyond it.
constexpr size_t SummaryBlock = 250;

/// Rank over blocks for the latency of requests to a server: the lower
/// decile. Interference from outside the process (the hypervisor running
/// another guest on our CPUs) stalls the server for stretches that delay
/// every request in them, while a cost in the code recurs in every
/// stretch: a code change moves every block, a burst only some.
constexpr double QuietBlockRank = 10;
/// Rank over blocks for per-call service times, where a stall delays only
/// the call it meets: the median.
constexpr double MedianBlockRank = 50;

/// Summarizes \p V, given in arrival order. The sample is cut into
/// consecutive blocks of at least \p Block samples (one block when there
/// are fewer). P50 and P90 are the \p BlockRank percentile, over the
/// blocks, of each block's percentile. P99 and the highest percentile the
/// whole sample supports are pooled, so they show bursts and periodic
/// stalls alike.
inline Summary summarize(const std::vector<double> &V, double BlockRank,
                         size_t Block = SummaryBlock) {
  Summary S;
  S.N = V.size();
  S.Blocks = std::max<uint64_t>(1, S.N / Block);
  std::vector<double> P50s, P90s, Part;
  for (uint64_t I = 0; I < S.Blocks; ++I) {
    Part.assign(V.begin() + I * S.N / S.Blocks,
                V.begin() + (I + 1) * S.N / S.Blocks);
    std::sort(Part.begin(), Part.end());
    P50s.push_back(percentileSorted(Part, 50));
    P90s.push_back(percentileSorted(Part, 90));
  }
  std::sort(P50s.begin(), P50s.end());
  std::sort(P90s.begin(), P90s.end());
  S.P50 = percentileSorted(P50s, BlockRank);
  S.P90 = percentileSorted(P90s, BlockRank);
  Part = V;
  std::sort(Part.begin(), Part.end());
  S.P99 = percentileSorted(Part, 99);
  S.TopPct = highestSupportedPercentile(S.N);
  S.Top = percentileSorted(Part, S.TopPct);
  return S;
}

//===----------------------------------------------------------------------===//
// Failure ledger.
//===----------------------------------------------------------------------===//

/// What became of one attempted operation. The first three are outcomes
/// of a served operation; the rest are failures.
enum class Outcome : uint8_t {
  Ok,
  NotFound, ///< Served: the key is absent.
  Mismatch, ///< Served: a CAS expectation did not hold.
  Overloaded,
  DeadlineExceeded,
  DurabilityLost,
  ConnectionLost, ///< The connection died with the operation in flight.
  NoAnswer,       ///< Still unanswered at the drain deadline.
  Refused,        ///< Any other non-serving status (Full, BadRequest).
};
inline constexpr unsigned NumOutcomes = 9;

inline bool isFailure(Outcome O) {
  return O != Outcome::Ok && O != Outcome::NotFound &&
         O != Outcome::Mismatch;
}

inline const char *outcomeName(Outcome O) {
  static const char *Names[NumOutcomes] = {
      "ok",          "not_found",       "mismatch",
      "overloaded",  "deadline",        "durability_lost",
      "conn_lost",   "no_answer",       "refused"};
  return Names[unsigned(O)];
}

/// Attempted/failed bookkeeping behind `failed_ratio`: every attempted
/// operation is recorded exactly once with its final outcome.
struct FailureTally {
  uint64_t Counts[NumOutcomes] = {};

  void add(Outcome O, uint64_t N = 1) { Counts[unsigned(O)] += N; }
  FailureTally &operator+=(const FailureTally &T) {
    for (unsigned I = 0; I < NumOutcomes; ++I)
      Counts[I] += T.Counts[I];
    return *this;
  }
  uint64_t attempted() const {
    uint64_t N = 0;
    for (uint64_t C : Counts)
      N += C;
    return N;
  }
  uint64_t failed() const {
    uint64_t N = 0;
    for (unsigned I = 0; I < NumOutcomes; ++I)
      if (isFailure(Outcome(I)))
        N += Counts[I];
    return N;
  }
  double ratio() const {
    uint64_t A = attempted();
    return A ? double(failed()) / double(A) : 0.0;
  }
};

//===----------------------------------------------------------------------===//
// Open-loop schedule.
//===----------------------------------------------------------------------===//

/// Arrival offsets (ns from phase start) of a Poisson process of rate
/// \p PerSec over \p DurNs, drawn with \p Uniform01 (returns [0, 1)).
template <typename UniformFn>
std::vector<int64_t> poissonSchedule(double PerSec, int64_t DurNs,
                                     UniformFn &&Uniform01) {
  std::vector<int64_t> Out;
  Out.reserve(size_t(PerSec * double(DurNs) / 1e9 * 1.1) + 16);
  double MeanGapNs = 1e9 / PerSec;
  double T = 0;
  for (;;) {
    T += -std::log(1.0 - Uniform01()) * MeanGapNs;
    if (T >= double(DurNs))
      return Out;
    Out.push_back(int64_t(T));
  }
}

/// The four instants of one open-loop request. Latency is charged from
/// the scheduled arrival, so a generator or system stall shows in every
/// request due during it, not only in the one that met it.
struct RequestTimes {
  int64_t Sched = 0;     ///< When the schedule said to send.
  int64_t SendStart = 0; ///< Entered Client::send.
  int64_t SendEnd = 0;   ///< Returned from Client::send.
  int64_t Done = 0;      ///< Response decoded.

  int64_t latency() const { return Done - Sched; }
  int64_t late() const { return SendStart - Sched; }
  int64_t send() const { return SendEnd - SendStart; }
  int64_t rtt() const { return Done - SendEnd; }
};

//===----------------------------------------------------------------------===//
// Spans.
//===----------------------------------------------------------------------===//

/// One traced interval. Spans of one request share Request; Parent is
/// the Id of the enclosing span (0 for a root).
struct Span {
  uint64_t Id = 0;
  uint64_t Parent = 0;
  uint64_t Request = 0;
  const char *Name = "";
  int64_t Start = 0;
  int64_t End = 0;

  int64_t duration() const { return End - Start; }
};

/// Append-only span store of one thread; merged after the run.
class SpanLog {
public:
  /// Ids are unique across logs when each log gets its own \p IdBase.
  explicit SpanLog(uint64_t IdBase = 0) : Next(IdBase) {}

  uint64_t add(uint64_t Parent, uint64_t Request, const char *Name,
               int64_t Start, int64_t End) {
    Spans.push_back({++Next, Parent, Request, Name, Start, End});
    return Next;
  }

  /// The three children of an open-loop request under one root:
  /// driver.wait [sched, send start), net.client.send [send start, send
  /// end), net.rtt [send end, done). Returns the root's id.
  uint64_t addRequest(uint64_t Request, const RequestTimes &T,
                      uint64_t Parent = 0) {
    uint64_t Root = add(Parent, Request, "request", T.Sched, T.Done);
    add(Root, Request, "driver.wait", T.Sched, T.SendStart);
    add(Root, Request, "net.client.send", T.SendStart, T.SendEnd);
    add(Root, Request, "net.rtt", T.SendEnd, T.Done);
    return Root;
  }

  std::vector<Span> Spans;

private:
  uint64_t Next;
};

/// Self time of every span in \p Spans (same order): its duration minus
/// the part of its interval covered by its direct children (overlapping
/// children counted once, children clipped to the parent).
inline std::vector<int64_t> selfTimes(const std::vector<Span> &Spans) {
  std::vector<size_t> Order(Spans.size());
  for (size_t I = 0; I < Order.size(); ++I)
    Order[I] = I;
  // Group children by parent, then by start.
  std::sort(Order.begin(), Order.end(), [&](size_t A, size_t B) {
    if (Spans[A].Parent != Spans[B].Parent)
      return Spans[A].Parent < Spans[B].Parent;
    return Spans[A].Start < Spans[B].Start;
  });
  std::vector<std::pair<uint64_t, size_t>> Ids;
  Ids.reserve(Spans.size());
  for (size_t I = 0; I < Spans.size(); ++I)
    Ids.push_back({Spans[I].Id, I});
  std::sort(Ids.begin(), Ids.end());
  auto Find = [&](uint64_t Id) -> long {
    auto It = std::lower_bound(Ids.begin(), Ids.end(),
                               std::pair<uint64_t, size_t>{Id, 0});
    return It != Ids.end() && It->first == Id ? long(It->second) : -1;
  };

  std::vector<int64_t> Self(Spans.size());
  for (size_t I = 0; I < Spans.size(); ++I)
    Self[I] = Spans[I].duration();
  size_t At = 0;
  while (At < Order.size()) {
    uint64_t Parent = Spans[Order[At]].Parent;
    size_t End = At;
    while (End < Order.size() && Spans[Order[End]].Parent == Parent)
      ++End;
    long P = Parent ? Find(Parent) : -1;
    if (P >= 0) {
      const Span &PS = Spans[size_t(P)];
      int64_t Covered = 0, Reach = PS.Start;
      for (size_t K = At; K < End; ++K) {
        int64_t S = std::max(Spans[Order[K]].Start, Reach);
        int64_t E = std::min(Spans[Order[K]].End, PS.End);
        if (E > S) {
          Covered += E - S;
          Reach = E;
        }
      }
      Self[size_t(P)] -= Covered;
    }
    At = End;
  }
  return Self;
}

} // namespace perfbench

#endif // SATM_PERFBENCH_MEASURE_H
