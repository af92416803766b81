// Sample statistics and load schedules for the perfbench harness.
//
// Everything here is a pure function of its arguments (the Poisson
// schedule of its seed), so selftest.cc can pin the behaviour down.

#ifndef PERFBENCH_HARNESS_STATS_H_
#define PERFBENCH_HARNESS_STATS_H_

#include <cstdint>
#include <vector>

namespace perfbench {

/// Samples that must lie beyond a reported tail: the tail is the highest
/// percentile with at least this many samples above it.
inline constexpr uint64_t kTailBeyond = 10;

/// Which sorted sample a tail reads. For n samples the tail is the value at
/// 0-based sorted index n - 1 - kTailBeyond, so exactly kTailBeyond samples
/// lie beyond it; `percentile` is the share of samples at or below it, in
/// percent. Valid only when n > kTailBeyond.
struct TailPick {
  bool valid = false;
  uint64_t index = 0;
  uint64_t beyond = 0;
  double percentile = 0.0;
};

TailPick ChooseTail(uint64_t n);

/// Median and tail of one latency sample set.
struct Summary {
  uint64_t n = 0;
  double p50 = 0.0;
  /// The value at the tail pick; the maximum when n <= kTailBeyond.
  double tail = 0.0;
  /// TailPick::percentile, or 100 when the sample set is too small.
  double tail_percentile = 0.0;
};

Summary Summarize(std::vector<double> samples);

/// Summaries of consecutive time windows and their medians: the window of
/// a sample is at_ns[i] / window_ns, with samples past the last window
/// folded into it. p50 and tail are the medians over windows of each
/// window's own p50 and tail, so one stalled second moves them by at most
/// one rank. Used for the open-loop phases, whose whole-run tail would
/// otherwise read the ten worst of tens of thousands of samples.
struct WindowedSummary {
  uint64_t windows = 0;
  uint64_t n = 0;  ///< Samples over all windows.
  double p50 = 0.0;
  double tail = 0.0;
  /// Median over windows of each window's tail percentile.
  double tail_percentile = 0.0;
  /// Each window's tail, in window order.
  std::vector<double> window_tails;
};

WindowedSummary SummarizeWindows(const std::vector<double>& samples,
                                 const std::vector<uint64_t>& at_ns,
                                 uint64_t window_ns, uint64_t windows);

/// Median of `values` (mean of the middle two for an even count); 0 when
/// empty.
double Median(std::vector<double> values);

/// Arrival offsets, in nanoseconds from the start of the schedule, of a
/// Poisson process with `rate_per_s` arrivals per second over `seconds`:
/// exponential gaps drawn from a generator seeded with `seed`, so the same
/// seed gives the same schedule.
std::vector<uint64_t> PoissonSchedule(double rate_per_s, double seconds,
                                      uint64_t seed);

/// A geometric ladder of offered rates: lo, lo * step, lo * step^2, ...,
/// up to and including the last rung not above hi.
std::vector<double> RateLadder(double lo, double hi, double step);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_STATS_H_
