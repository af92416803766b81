#include "stats.h"

#include <algorithm>
#include <cmath>

#include "util/random.h"

namespace perfbench {

TailPick ChooseTail(uint64_t n) {
  TailPick pick;
  if (n <= kTailBeyond) return pick;
  pick.valid = true;
  pick.index = n - 1 - kTailBeyond;
  pick.beyond = kTailBeyond;
  pick.percentile =
      100.0 * static_cast<double>(pick.index + 1) / static_cast<double>(n);
  return pick;
}

Summary Summarize(std::vector<double> samples) {
  Summary s;
  s.n = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.p50 = Median(samples);
  const TailPick pick = ChooseTail(s.n);
  if (pick.valid) {
    s.tail = samples[pick.index];
    s.tail_percentile = pick.percentile;
  } else {
    s.tail = samples.back();
    s.tail_percentile = 100.0;
  }
  return s;
}

WindowedSummary SummarizeWindows(const std::vector<double>& samples,
                                 const std::vector<uint64_t>& at_ns,
                                 uint64_t window_ns, uint64_t windows) {
  WindowedSummary out;
  if (samples.empty() || windows == 0 || window_ns == 0) return out;
  std::vector<std::vector<double>> by_window(windows);
  for (size_t i = 0; i < samples.size(); ++i) {
    const uint64_t w = std::min<uint64_t>(at_ns[i] / window_ns, windows - 1);
    by_window[w].push_back(samples[i]);
  }
  std::vector<double> p50s, percentiles;
  for (std::vector<double>& window : by_window) {
    if (window.empty()) continue;
    const Summary s = Summarize(std::move(window));
    out.n += s.n;
    p50s.push_back(s.p50);
    out.window_tails.push_back(s.tail);
    percentiles.push_back(s.tail_percentile);
  }
  out.windows = p50s.size();
  out.p50 = Median(p50s);
  out.tail = Median(out.window_tails);
  out.tail_percentile = Median(percentiles);
  return out;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  if (values.size() % 2 == 1) return values[mid];
  return (values[mid - 1] + values[mid]) / 2.0;
}

std::vector<uint64_t> PoissonSchedule(double rate_per_s, double seconds,
                                      uint64_t seed) {
  std::vector<uint64_t> due;
  if (rate_per_s <= 0.0 || seconds <= 0.0) return due;
  recomp::Rng rng(seed);
  const double end_ns = seconds * 1e9;
  const double mean_gap_ns = 1e9 / rate_per_s;
  due.reserve(static_cast<size_t>(rate_per_s * seconds * 1.2) + 16);
  double t = 0.0;
  while (true) {
    // 1 - U lies in (0, 1], so the log is finite.
    t += -std::log(1.0 - rng.NextDouble()) * mean_gap_ns;
    if (t >= end_ns) break;
    due.push_back(static_cast<uint64_t>(t));
  }
  return due;
}

std::vector<double> RateLadder(double lo, double hi, double step) {
  std::vector<double> rungs;
  if (lo <= 0.0 || step <= 1.0) return rungs;
  for (double r = lo; r <= hi * (1.0 + 1e-9); r *= step) rungs.push_back(r);
  return rungs;
}

}  // namespace perfbench
