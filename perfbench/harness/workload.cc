#include "workload.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "gen/generators.h"

namespace perfbench {

using recomp::AnyColumn;
using recomp::Column;
using recomp::TypeId;
using recomp::exec::AggregateOp;

namespace {

constexpr double kOrdersPerDay = 1000.0;
constexpr uint64_t kCatDistinct = 1000;
constexpr double kCatSkew = 1.1;
constexpr int kPriceBaseBits = 10;
constexpr int kPriceOutlierBits = 28;
constexpr double kPriceOutlierFraction = 0.01;
constexpr uint64_t kAmountBound = uint64_t{1} << 40;

template <typename T>
Column<T> SliceOf(const Column<T>& col, uint64_t begin, uint64_t end) {
  return Column<T>(col.begin() + static_cast<ptrdiff_t>(begin),
                   col.begin() + static_cast<ptrdiff_t>(end));
}

template <typename T>
std::vector<uint64_t> PrefixSums(const Column<T>& col) {
  std::vector<uint64_t> prefix(col.size() + 1, 0);
  for (size_t i = 0; i < col.size(); ++i) {
    prefix[i + 1] = prefix[i] + static_cast<uint64_t>(col[i]);
  }
  return prefix;
}

/// Order-sensitive running hash of a value sequence.
uint64_t Mix(uint64_t h, uint64_t v) {
  h = (h ^ v) + 0x9e3779b97f4a7c15ull;
  h *= 0xbf58476d1ce4e5b9ull;
  return h ^ (h >> 31);
}

}  // namespace

std::vector<AnyColumn> DataSet::Slice(uint64_t begin, uint64_t end) const {
  return {AnyColumn(SliceOf(date, begin, end)),
          AnyColumn(SliceOf(qty, begin, end)),
          AnyColumn(SliceOf(cat, begin, end)),
          AnyColumn(SliceOf(price, begin, end)),
          AnyColumn(SliceOf(amount, begin, end))};
}

DataSet GenerateData(uint64_t base_rows, uint64_t reserve_rows,
                     uint64_t seed) {
  const uint64_t n = base_rows + reserve_rows;
  // Distinct, seed-derived streams per column.
  recomp::Rng seeds(seed);
  DataSet d;
  d.base_rows = base_rows;
  d.date = recomp::gen::ShippedOrderDates(n, kOrdersPerDay, seeds.Next());
  d.qty = recomp::gen::Uniform(n, kQtyBound, seeds.Next());
  d.cat = recomp::gen::ZipfValues(n, kCatDistinct, kCatSkew, seeds.Next());
  d.price = recomp::gen::OutlierMix(n, kPriceBaseBits, kPriceOutlierBits,
                                    kPriceOutlierFraction, seeds.Next());
  d.amount = recomp::gen::Uniform64(n, kAmountBound, seeds.Next());
  d.price_prefix = PrefixSums(d.price);
  d.amount_prefix = PrefixSums(d.amount);
  return d;
}

std::vector<recomp::store::ColumnSpec> TableSpecs(uint64_t chunk_rows) {
  std::vector<recomp::store::ColumnSpec> specs;
  for (int c = 0; c < kNumColumns; ++c) {
    recomp::store::ColumnSpec spec;
    spec.name = kColumnNames[c];
    spec.type = c == 4 ? TypeId::kUInt64 : TypeId::kUInt32;
    spec.options.chunk_rows = chunk_rows;
    specs.push_back(std::move(spec));
  }
  return specs;
}

const char* QueryClassName(QueryClass cls) {
  switch (cls) {
    case QueryClass::kSparse:
      return "sparse";
    case QueryClass::kDense:
      return "dense";
    case QueryClass::kDashboard:
      return "dashboard";
    case QueryClass::kDrillDown:
      return "drilldown";
    case QueryClass::kAdHoc:
      return "adhoc";
  }
  return "?";
}

recomp::exec::ScanSpec Query::Spec() const {
  recomp::exec::ScanSpec spec;
  spec.Filter("date", {date_lo, date_hi});
  if (qty_filter) spec.Filter("qty", {qty_lo, qty_hi});
  if (project_qty) spec.Project({"qty"});
  spec.Aggregate("price", AggregateOp::kSum);
  if (sum_amount) spec.Aggregate("amount", AggregateOp::kSum);
  return spec;
}

std::string Digest::ToString() const {
  std::string s;
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "scanned=%llu matched=%llu positions=%llu/%016llx "
                "projected=%llu/%016llx aggregates=[",
                static_cast<unsigned long long>(rows_scanned),
                static_cast<unsigned long long>(rows_matched),
                static_cast<unsigned long long>(positions),
                static_cast<unsigned long long>(positions_hash),
                static_cast<unsigned long long>(projected),
                static_cast<unsigned long long>(projected_hash));
  s += buf;
  for (size_t i = 0; i < aggregates.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s%llu", i == 0 ? "" : ",",
                  static_cast<unsigned long long>(aggregates[i]));
    s += buf;
  }
  return s + "]";
}

Digest DigestOf(const recomp::exec::ScanResult& result) {
  Digest d;
  d.rows_scanned = result.rows_scanned;
  d.rows_matched = result.rows_matched;
  d.positions = result.positions.size();
  for (uint32_t p : result.positions) d.positions_hash = Mix(d.positions_hash, p);
  for (const auto& projection : result.projections) {
    // Every projection the harness asks for is the uint32 qty column.
    if (projection.values.is_packed() ||
        projection.values.type() != TypeId::kUInt32) {
      d.projected = ~uint64_t{0};
      continue;
    }
    const Column<uint32_t>& values = projection.values.As<uint32_t>();
    d.projected += values.size();
    for (uint32_t v : values) d.projected_hash = Mix(d.projected_hash, v);
  }
  for (const auto& aggregate : result.aggregates) {
    d.aggregates.push_back(aggregate.value());
  }
  return d;
}

Digest Expect(const DataSet& data, const Query& query, uint64_t rows) {
  Digest d;
  rows = std::min(rows, data.rows());
  d.rows_scanned = rows;
  // date is sorted: the band is one contiguous row range.
  const auto first = data.date.begin();
  const auto last = first + static_cast<ptrdiff_t>(rows);
  const uint64_t begin = static_cast<uint64_t>(
      std::lower_bound(first, last, query.date_lo) - first);
  const uint64_t end = std::max<uint64_t>(
      begin, static_cast<uint64_t>(
                 std::upper_bound(first, last, query.date_hi) - first));
  uint64_t sum_price = 0;
  uint64_t sum_amount = 0;
  if (!query.qty_filter) {
    d.rows_matched = end - begin;
    for (uint64_t r = begin; r < end; ++r) {
      d.positions_hash = Mix(d.positions_hash, r);
    }
    sum_price = data.price_prefix[end] - data.price_prefix[begin];
    sum_amount = data.amount_prefix[end] - data.amount_prefix[begin];
    if (query.project_qty) {
      d.projected = end - begin;
      for (uint64_t r = begin; r < end; ++r) {
        d.projected_hash = Mix(d.projected_hash, data.qty[r]);
      }
    }
  } else {
    for (uint64_t r = begin; r < end; ++r) {
      const uint32_t q = data.qty[r];
      if (q < query.qty_lo || q > query.qty_hi) continue;
      ++d.rows_matched;
      d.positions_hash = Mix(d.positions_hash, r);
      sum_price += data.price[r];
      sum_amount += data.amount[r];
      if (query.project_qty) {
        ++d.projected;
        d.projected_hash = Mix(d.projected_hash, q);
      }
    }
  }
  d.positions = d.rows_matched;
  d.aggregates.push_back(sum_price);
  if (query.sum_amount) d.aggregates.push_back(sum_amount);
  return d;
}

ScanQueryStream::ScanQueryStream(const DataSet& data, uint64_t seed)
    : lo_(data.date_min()),
      span_(data.date_max() - data.date_min()),
      rng_(seed) {}

Query ScanQueryStream::Next() {
  if (issued_ % kScanQueriesPerDense == 0) {
    dense_slot_ = rng_.Below(kScanQueriesPerDense);
    if (dense_issued_ % 4 == 0) {
      // A fresh seeded permutation of the strata for the next four.
      for (uint64_t i = 3; i > 0; --i) {
        std::swap(dense_strata_[i], dense_strata_[rng_.Below(i + 1)]);
      }
    }
  }
  const bool dense = issued_ % kScanQueriesPerDense == dense_slot_;
  ++issued_;
  Query q;
  if (dense) {
    q.cls = QueryClass::kDense;
    const double stratum =
        static_cast<double>(dense_strata_[dense_issued_ % 4]);
    ++dense_issued_;
    const double share = 0.25 + 0.75 * (stratum + rng_.NextDouble()) / 4.0;
    const uint32_t width = static_cast<uint32_t>(span_ * share);
    q.date_lo = lo_ + static_cast<uint32_t>(rng_.Below(span_ - width + 1));
    q.date_hi = q.date_lo + width;
    q.project_qty = true;
    q.sum_amount = true;
  } else {
    q.cls = QueryClass::kSparse;
    static constexpr uint64_t kPerTenThousand[3] = {25, 50, 100};
    const uint32_t width = std::max<uint32_t>(
        1, static_cast<uint32_t>(span_ * kPerTenThousand[rng_.Below(3)] /
                                 10000));
    q.date_lo = lo_ + static_cast<uint32_t>(rng_.Below(span_ - width + 1));
    q.date_hi = q.date_lo + width - 1;
    q.qty_filter = true;
    q.qty_lo = static_cast<uint32_t>(rng_.Below(kQtyBound / 2));
    q.qty_hi = q.qty_lo + kQtyBound / 2;
  }
  return q;
}

namespace {
constexpr double kDashboardShare = 0.60;
constexpr double kDrillDownShare = 0.15;
constexpr uint32_t kDashboardWidths[5] = {1, 3, 7, 14, 30};
constexpr double kHotSkew = 1.1;
/// The top of an open-ended date band.
constexpr uint32_t kOpenEnd = ~uint32_t{0};
}  // namespace

ServeQueryStream::ServeQueryStream(const DataSet& data, uint64_t seed)
    : lo_(data.date_min()), rng_(seed), zipf_(kHotBands, kHotSkew) {}

uint32_t ServeQueryStream::Before(uint32_t date, uint32_t days) const {
  return date - std::min(days, date - lo_);
}

Query ServeQueryStream::Hot(int k, uint32_t newest) const {
  // Widths cycle with the rank rather than being drawn, so every seed
  // serves the same mix of band widths. The first five ranks, one per
  // width, are "the last N days" and stay open at the top, so they also
  // cover rows appended after the event is issued; rank k >= 5 ends 3 * k
  // days before the newest date.
  Query q;
  q.cls = QueryClass::kDashboard;
  const uint32_t width = kDashboardWidths[k % 5];
  if (k < 5) {
    q.date_lo = Before(newest, width - 1);
    q.date_hi = kOpenEnd;
  } else {
    q.date_hi = Before(newest, static_cast<uint32_t>(3 * k));
    q.date_lo = Before(q.date_hi, width - 1);
  }
  return q;
}

std::vector<Query> ServeQueryStream::HotSet(uint32_t newest) const {
  std::vector<Query> hot;
  for (int k = 0; k < kHotBands; ++k) hot.push_back(Hot(k, newest));
  return hot;
}

std::vector<Query> ServeQueryStream::NextEvent(uint32_t newest) {
  const double u = rng_.NextDouble();
  if (u < kDashboardShare) {
    return {Hot(static_cast<int>(zipf_.Sample(rng_)), newest)};
  }
  if (u < kDashboardShare + kDrillDownShare) {
    // A month within the last year, a week inside it, a day inside that.
    Query month;
    month.cls = QueryClass::kDrillDown;
    month.date_lo =
        Before(newest, 365 - static_cast<uint32_t>(rng_.Below(336)));
    month.date_hi = month.date_lo + 29;
    Query week = month;
    week.date_lo = month.date_lo + static_cast<uint32_t>(rng_.Below(24));
    week.date_hi = week.date_lo + 6;
    Query day = week;
    day.date_lo = week.date_lo + static_cast<uint32_t>(rng_.Below(7));
    day.date_hi = day.date_lo;
    return {month, week, day};
  }
  Query adhoc;
  adhoc.cls = QueryClass::kAdHoc;
  const uint32_t width = 1 + static_cast<uint32_t>(rng_.Below(30));
  const uint32_t room = newest - lo_ > width ? newest - lo_ - width : 1;
  adhoc.date_lo = lo_ + static_cast<uint32_t>(rng_.Below(room));
  adhoc.date_hi = adhoc.date_lo + width - 1;
  return {adhoc};
}

double ServeQueryStream::MeanQueriesPerEvent() {
  return kDashboardShare + 3 * kDrillDownShare +
         (1.0 - kDashboardShare - kDrillDownShare);
}

double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double mb = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    unsigned long long kb = 0;
    if (std::sscanf(line, "VmHWM: %llu kB", &kb) == 1) {
      mb = static_cast<double>(kb) / 1024.0;
      break;
    }
  }
  std::fclose(f);
  return mb;
}

}  // namespace perfbench
