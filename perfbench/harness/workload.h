// Inputs and answers of the perfbench workloads.
//
// DataSet holds the generated columns: `base_rows` rows loaded at set-up,
// then a reserve of rows the serve_live workload appends while it runs.
// Every column comes from a src/gen generator seeded from the run's seed,
// one per compression shape the analyzer chooses between:
//
//   date    ShippedOrderDates  runs (RLE family); sorted, so a date band is
//                              a contiguous row range
//   qty     Uniform            plain bit packing (NS)
//   cat     ZipfValues         dictionary (DICT)
//   price   OutlierMix         patched packing (PATCHED)
//   amount  Uniform64          the 64-bit column
//
// Query describes a scan the harness can answer on its own. Expect() is the
// oracle: it answers a query over the first `rows` generated rows with plain
// loops and prefix sums, never through the library. DigestOf() reduces the
// library's ScanResult to the same comparable form, so every workload checks
// answers through one path.

#ifndef PERFBENCH_HARNESS_WORKLOAD_H_
#define PERFBENCH_HARNESS_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "columnar/any_column.h"
#include "exec/scan.h"
#include "store/table.h"
#include "util/random.h"

namespace perfbench {

inline constexpr int kNumColumns = 5;
inline constexpr const char* kColumnNames[kNumColumns] = {
    "date", "qty", "cat", "price", "amount"};
/// Raw bytes of one row: four uint32 columns and one uint64 column.
inline constexpr uint64_t kRawBytesPerRow = 4 * 4 + 8;
/// Upper bound of the qty values.
inline constexpr uint32_t kQtyBound = 1u << 20;

struct DataSet {
  recomp::Column<uint32_t> date, qty, cat, price;
  recomp::Column<uint64_t> amount;
  /// Wrapping prefix sums (size rows() + 1) so band sums cost O(1).
  std::vector<uint64_t> price_prefix, amount_prefix;
  uint64_t base_rows = 0;

  uint64_t rows() const { return date.size(); }
  /// Rows [begin, end) of every column, in table column order.
  std::vector<recomp::AnyColumn> Slice(uint64_t begin, uint64_t end) const;
  /// Smallest and largest date among the base rows.
  uint32_t date_min() const { return date.front(); }
  uint32_t date_max() const { return date[base_rows - 1]; }
};

/// Generates base_rows + reserve_rows rows of every column from `seed`.
DataSet GenerateData(uint64_t base_rows, uint64_t reserve_rows,
                     uint64_t seed);

/// The table layout every workload builds: one column per DataSet column,
/// each left to the per-chunk analyzer.
std::vector<recomp::store::ColumnSpec> TableSpecs(uint64_t chunk_rows);

enum class QueryClass : int {
  kSparse = 0,  ///< scan: <= 1% date band, a qty filter, SUM(price).
  kDense,       ///< scan: 25-100% date band, Project(qty), SUM(price),
                ///< SUM(amount).
  kDashboard,   ///< serve_live: a hot recent band, SUM(price).
  kDrillDown,   ///< serve_live: nested bands submitted together.
  kAdHoc,       ///< serve_live: a unique band anywhere, SUM(price).
};
const char* QueryClassName(QueryClass cls);

struct Query {
  QueryClass cls = QueryClass::kSparse;
  uint32_t date_lo = 0;
  uint32_t date_hi = 0;
  bool qty_filter = false;
  uint32_t qty_lo = 0;
  uint32_t qty_hi = 0;
  bool project_qty = false;
  bool sum_amount = false;

  recomp::exec::ScanSpec Spec() const;
};

/// The comparable outputs of one scan: row counts, order-sensitive hashes
/// of the positions and of the projected values, and every aggregate.
struct Digest {
  uint64_t rows_scanned = 0;
  uint64_t rows_matched = 0;
  uint64_t positions = 0;
  uint64_t positions_hash = 0;
  uint64_t projected = 0;
  uint64_t projected_hash = 0;
  std::vector<uint64_t> aggregates;

  bool operator==(const Digest& other) const = default;
  std::string ToString() const;
};

/// The library's answer reduced to a Digest.
Digest DigestOf(const recomp::exec::ScanResult& result);

/// The oracle's answer to `query` over the first `rows` rows of `data`.
Digest Expect(const DataSet& data, const Query& query, uint64_t rows);

/// One scan query in this many is dense. A dense query takes ~100 times
/// as long as a sparse one, so at one in 16 dense scans still fill ~75% of
/// the scan time while sparse scans get ~4 times the samples a second they
/// had at one in five, the mix first tried, whose sparse figures spread
/// past 0.1 over five seeds.
constexpr uint64_t kScanQueriesPerDense = 16;

/// The scan workload's query stream. One query in kScanQueriesPerDense is
/// dense, at a seeded place in each block of that many. Dense widths cover
/// 25-100% of the date range in four strata of 18.75 points; each run of
/// four dense queries takes the strata in a seeded order with a uniform
/// width inside each. Sparse widths are one of {0.25, 0.5, 1}%, and band
/// positions are uniform. Stratifying classes and widths keeps one seed's
/// mix close to another's, and continuous widths keep the latency quantiles
/// smooth.
class ScanQueryStream {
 public:
  ScanQueryStream(const DataSet& data, uint64_t seed);
  Query Next();

 private:
  uint32_t lo_;
  uint32_t span_;
  recomp::Rng rng_;
  uint64_t issued_ = 0;
  uint64_t dense_slot_ = 0;
  uint64_t dense_strata_[4] = {0, 1, 2, 3};
  uint64_t dense_issued_ = 0;
};

/// The serve_live workload's arrivals. Each arrival is one event: a
/// dashboard query (Zipf-skewed over kHotBands recent bands), a drill-down
/// (a month band within the last year, plus a week and a day nested in it,
/// submitted together so they share a batch), or a unique ad hoc band.
/// "Recent" is relative to `newest`, the newest date appended when the
/// event is issued, so the reads follow the live appends: the hottest
/// dashboards are open-ended "last N days" bands that reach the table's
/// unsealed tail and the chunks sealed during the run.
///
/// The shares of the three kinds, the skew, the band widths and the hot
/// set's size are assumptions, not measurements of a real trace (README.md
/// lists the cache hit ratios they produce).
class ServeQueryStream {
 public:
  static constexpr int kHotBands = 32;

  ServeQueryStream(const DataSet& data, uint64_t seed);
  /// The queries of the next arrival, given the newest appended date.
  std::vector<Query> NextEvent(uint32_t newest);
  /// Mean queries per arrival, to turn an offered query rate into an
  /// arrival rate.
  static double MeanQueriesPerEvent();
  /// The dashboard bands when `newest` is the newest date, hottest first.
  std::vector<Query> HotSet(uint32_t newest) const;

 private:
  /// Dashboard rank k when `newest` is the newest date.
  Query Hot(int k, uint32_t newest) const;
  /// `days` before `date`, but not before the first date.
  uint32_t Before(uint32_t date, uint32_t days) const;

  uint32_t lo_;
  recomp::Rng rng_;
  recomp::ZipfSampler zipf_;
};

/// Peak resident set of this process in MiB (VmHWM), 0 if unreadable.
double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_WORKLOAD_H_
