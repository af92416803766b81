// Self-tests of the benchmark's own helpers: the tail-percentile choice,
// the seeded Poisson schedule and rate ladder, span self times, and the
// oracles checked against brute force and against the library on a tiny
// table. run.py runs this binary before every benchmark run; it exits
// non-zero on the first failed check group.
//
//   .bench_build/perfbench/perfbench_selftest

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "stats.h"
#include "store/table.h"
#include "tracer.h"
#include "workload.h"

namespace perfbench {
namespace {

int g_failures = 0;

void Check(bool ok, const std::string& what) {
  if (ok) return;
  ++g_failures;
  std::fprintf(stderr, "selftest FAILED: %s\n", what.c_str());
}

void TestTailChoice() {
  Check(!ChooseTail(0).valid, "no tail of 0 samples");
  Check(!ChooseTail(10).valid, "no tail of 10 samples");
  const TailPick eleven = ChooseTail(11);
  Check(eleven.valid && eleven.index == 0 && eleven.beyond == 10,
        "11 samples: the smallest has 10 beyond it");
  const TailPick hundred = ChooseTail(100);
  Check(hundred.index == 89 && std::abs(hundred.percentile - 90.0) < 1e-9,
        "100 samples: p90");
  const TailPick thousand = ChooseTail(1000);
  Check(thousand.index == 989 && std::abs(thousand.percentile - 99.0) < 1e-9,
        "1000 samples: p99");

  std::vector<double> samples;
  for (int i = 100; i >= 1; --i) samples.push_back(i);  // Unsorted input.
  const Summary s = Summarize(samples);
  Check(s.n == 100 && s.p50 == 50.5 && s.tail == 90.0,
        "Summarize 1..100: p50 50.5, tail 90");
  const Summary small = Summarize({3.0, 1.0, 2.0});
  Check(small.tail == 3.0 && small.tail_percentile == 100.0,
        "Summarize of too few samples falls back to the maximum");
  Check(Median({}) == 0.0 && Median({4.0, 1.0, 3.0}) == 3.0,
        "Median of an odd count");

  // Three 1 s windows of 100 samples; one stalled window does not move
  // the windowed tail.
  std::vector<double> lat;
  std::vector<uint64_t> at;
  for (uint64_t w = 0; w < 3; ++w) {
    for (int i = 1; i <= 100; ++i) {
      lat.push_back(w == 1 ? 1000.0 : i);
      at.push_back(w * 1'000'000'000ull + static_cast<uint64_t>(i));
    }
  }
  lat.push_back(5.0);  // Past the last window: folded into it.
  at.push_back(7'000'000'000ull);
  const WindowedSummary ws = SummarizeWindows(lat, at, 1'000'000'000ull, 3);
  Check(ws.windows == 3 && ws.n == 301 && ws.tail == 90.0,
        "windowed tail is the median of per-window tails");
}

void TestPoissonSchedule() {
  const std::vector<uint64_t> a = PoissonSchedule(1000.0, 2.0, 42);
  const std::vector<uint64_t> b = PoissonSchedule(1000.0, 2.0, 42);
  const std::vector<uint64_t> c = PoissonSchedule(1000.0, 2.0, 43);
  Check(a == b, "the same seed gives the same schedule");
  Check(a != c, "another seed gives another schedule");
  // 2000 expected arrivals; the Poisson count's sd is ~45.
  Check(a.size() > 1800 && a.size() < 2200, "arrival count near rate x time");
  bool ordered = true;
  for (size_t i = 1; i < a.size(); ++i) ordered &= a[i] >= a[i - 1];
  Check(ordered && !a.empty() && a.back() < 2'000'000'000ull,
        "arrivals ascend within the window");
  Check(PoissonSchedule(0.0, 1.0, 1).empty(), "rate 0 gives no arrivals");

  const std::vector<double> ladder = RateLadder(1000.0, 2000.0, 1.05);
  Check(!ladder.empty() && ladder.front() == 1000.0 && ladder.back() <= 2000.0 &&
            ladder.back() * 1.05 > 2000.0,
        "ladder spans [lo, hi]");
  bool steps = true;
  for (size_t i = 1; i < ladder.size(); ++i) {
    steps &= std::abs(ladder[i] / ladder[i - 1] - 1.05) < 1e-9;
  }
  Check(steps, "ladder steps are geometric");
}

void TestSelfTime() {
  std::vector<SpanRecord> spans = {
      {"bench", "root", 1, 1, 0, 0, 100},
      {"store", "a", 1, 2, 1, 10, 30},
      {"store", "b", 1, 3, 1, 20, 40},  // Overlaps a.
      {"exec", "c", 1, 4, 1, 90, 120},  // Runs past the parent's end.
      {"core", "d", 1, 5, 4, 95, 100},
  };
  const std::map<std::string, uint64_t> self = SelfTimeByLayer(spans);
  // Root: 100 minus [10,40) and [90,100) = 60.
  Check(self.at("bench") == 60, "parent self time excludes covered children");
  Check(self.at("store") == 40, "children keep their own durations");
  Check(self.at("exec") == 25, "nested child subtracted from its parent");
  Check(self.at("core") == 5, "leaf self time is its duration");

  Tracer off(false);
  { Tracer::Scope span(&off, "bench", "x", off.NewTrace()); }
  Check(off.spans().empty(), "a disabled tracer records nothing");
  Tracer on(true);
  {
    Tracer::Scope root(&on, "bench", "x", on.NewTrace());
    Tracer::Scope child(&on, "store", "y", 1, root.id());
  }
  const std::vector<SpanRecord> recorded = on.spans();
  Check(recorded.size() == 2 && recorded[0].parent == recorded[1].id,
        "a nested scope names its parent");
}

/// The oracle answer by brute force: no binary search, no prefix sums.
Digest BruteForce(const DataSet& d, const Query& q, uint64_t rows) {
  std::vector<uint64_t> rows_matched;
  for (uint64_t r = 0; r < rows; ++r) {
    if (d.date[r] < q.date_lo || d.date[r] > q.date_hi) continue;
    if (q.qty_filter && (d.qty[r] < q.qty_lo || d.qty[r] > q.qty_hi)) continue;
    rows_matched.push_back(r);
  }
  // Build the digest through the library-side reducer on a hand-made
  // ScanResult, so both hashing paths are exercised.
  recomp::exec::ScanResult result;
  result.rows_scanned = rows;
  result.rows_matched = rows_matched.size();
  uint64_t sum_price = 0;
  uint64_t sum_amount = 0;
  recomp::Column<uint32_t> projected;
  for (uint64_t r : rows_matched) {
    result.positions.push_back(static_cast<uint32_t>(r));
    sum_price += d.price[r];
    sum_amount += d.amount[r];
    projected.push_back(d.qty[r]);
  }
  if (q.project_qty) {
    recomp::exec::ScanProjection p;
    p.column = "qty";
    p.values = recomp::AnyColumn(projected);
    result.projections.push_back(std::move(p));
  }
  recomp::exec::ScanAggregate price;
  price.agg.value = sum_price;
  result.aggregates.push_back(price);
  if (q.sum_amount) {
    recomp::exec::ScanAggregate amount;
    amount.agg.value = sum_amount;
    result.aggregates.push_back(amount);
  }
  return DigestOf(result);
}

void TestOracles() {
  constexpr uint64_t kBase = 6000;
  constexpr uint64_t kReserve = 2000;
  const DataSet d = GenerateData(kBase, kReserve, 7);
  const DataSet again = GenerateData(kBase, kReserve, 7);
  Check(d.date == again.date && d.amount == again.amount,
        "the same seed gives the same data");
  Check(d.rows() == kBase + kReserve && d.date_min() <= d.date_max(),
        "data sizes");

  std::vector<Query> queries;
  ScanQueryStream scan(d, 3);
  for (uint64_t i = 0; i < 4 * kScanQueriesPerDense; ++i) {
    queries.push_back(scan.Next());
  }
  // Serve events anchored at the newest base date and at the newest
  // reserve date, as before and after appends.
  ServeQueryStream serve(d, 3);
  for (int i = 0; i < 40; ++i) {
    const uint32_t newest = d.date[(i < 20 ? kBase : d.rows()) - 1];
    for (const Query& q : serve.NextEvent(newest)) {
      Check(q.date_lo <= q.date_hi && q.date_lo >= d.date_min(),
            "serve bands lie within the dates");
      queries.push_back(q);
    }
  }
  // The hottest dashboard stays open at the top: rows appended after it is
  // issued fall inside it.
  const Query hottest = serve.HotSet(d.date[kBase - 1]).front();
  Check(Expect(d, hottest, d.rows()).rows_matched >
            Expect(d, hottest, kBase).rows_matched,
        "the hottest dashboard band covers later appends");

  int dense = 0;
  for (const Query& q : queries) dense += q.cls == QueryClass::kDense;
  Check(dense == 4, "one scan query in kScanQueriesPerDense is dense");

  for (const Query& q : queries) {
    for (uint64_t rows : {kBase, kBase + kReserve, uint64_t{1}}) {
      if (!(Expect(d, q, rows) == BruteForce(d, q, rows))) {
        Check(false, std::string("oracle vs brute force, class ") +
                         QueryClassName(q.cls));
        return;
      }
    }
  }

  // The library on a tiny table agrees with the oracle, before and after
  // appending the reserve.
  recomp::store::Table table =
      recomp::store::Table::Create(TableSpecs(512)).ValueOrDie();
  Check(table.AppendBatch(d.Slice(0, kBase)).ok(), "append base");
  Check(table.Flush().ok(), "flush");
  for (int phase = 0; phase < 2; ++phase) {
    const recomp::store::TableSnapshot snap = table.Snapshot().ValueOrDie();
    for (const Query& q : queries) {
      auto result = recomp::exec::Scan(snap, q.Spec());
      if (!result.ok() ||
          !(DigestOf(*result) == Expect(d, q, snap.rows()))) {
        Check(false, std::string("library vs oracle on a tiny table, class ") +
                         QueryClassName(q.cls));
        return;
      }
    }
    Check(table.AppendBatch(d.Slice(kBase, kBase + kReserve)).ok(),
          "append reserve");
  }

  // A wrong answer must not pass: perturb one aggregate and one position.
  const Query q = queries.front();
  Digest want = Expect(d, q, kBase);
  Digest wrong = want;
  wrong.aggregates[0] += 1;
  Check(!(wrong == want), "a wrong aggregate is caught");
  wrong = want;
  wrong.positions_hash ^= 1;
  Check(!(wrong == want), "a wrong position is caught");
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TestTailChoice();
  perfbench::TestPoissonSchedule();
  perfbench::TestSelfTime();
  perfbench::TestOracles();
  if (perfbench::g_failures != 0) {
    std::fprintf(stderr, "selftest: %d check(s) failed\n",
                 perfbench::g_failures);
    return 1;
  }
  std::puts("selftest: all checks passed");
  return 0;
}
