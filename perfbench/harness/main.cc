// perfbench_harness: the repository benchmark's measuring process.
//
//   perfbench_harness --workload ingest|scan|serve_live --seed N
//                     --seconds S --trace 0|1 [--trace-dir DIR]
//
// One process walks every phase, one at a time: set-up (generate the
// columns, build the table), then six rounds of `serve_live` (open-loop
// QueryService traffic beside live appends), `scan` (closed-loop exec::Scan
// on sealed set-up snapshots) and `ingest` (bulk AppendBatch + Flush into
// fresh tables), and last the serve_live rate ladder. serve_live and scan
// always measure for S seconds, ingest for S when --workload names it and
// S/2 otherwise, so every run reports every end-to-end metric. Each phase
// runs an untimed warm-up pass first, and every answer is checked against
// a plain oracle (workload.h).
//
// --trace 0 prints the end-to-end metrics. --trace 1 runs the same phases
// with spans around every call into a layer, replays the ingest chunks and
// the scan classes through the layers' public functions, and prints the
// per-layer metrics, each layer's self time and the tracing overhead.
//
// The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit codes: 0 ok; 1 a wrong answer; 2 bad arguments or a set-up failure;
// 3 the load generator fell behind its schedule, so the run is invalid.

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "columnar/stats.h"
#include "core/analyzer.h"
#include "core/chunked.h"
#include "core/fused.h"
#include "core/pipeline.h"
#include "exec/aggregate.h"
#include "exec/point_access.h"
#include "exec/scan.h"
#include "exec/selection.h"
#include "obs/metrics.h"
#include "service/query_service.h"
#include "stats.h"
#include "store/table.h"
#include "tracer.h"
#include "util/thread_pool.h"
#include "workload.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using recomp::AnyColumn;
using recomp::Column;
using recomp::ExecContext;
using recomp::Result;
using recomp::Status;
using recomp::ThreadPool;
using recomp::service::QueryService;
using recomp::service::ServiceOptions;
using recomp::store::Table;
using recomp::store::TableSnapshot;

// --- Sizes and limits ----------------------------------------------------------

/// Rows loaded at set-up and by every ingest pass: 2Mi rows, 48 MiB raw.
constexpr uint64_t kBaseRows = uint64_t{1} << 21;
constexpr uint64_t kChunkRows = 64 * 1024;
/// Rows per AppendBatch in set-up and in the ingest workload.
constexpr uint64_t kIngestBatchRows = 16 * 1024;
constexpr int kSetupReps = 5;
/// Timed ingest passes at least, however short the budget.
constexpr int kMinIngestReps = 3;

/// serve_live appends kAppendRows every kAppendPeriodNs: 20 appends and
/// 20Ki rows a second, so a 64Ki-row chunk rolls (and its seal jobs run)
/// every 3.2 s, and every append moves the data version.
constexpr uint64_t kAppendRows = 1024;
constexpr uint64_t kAppendPeriodNs = 50'000'000;
/// Clients the arrivals are spread over, round-robin.
constexpr int kClients = 64;
/// Offered rate of the fixed-rate serve_live phase, queries per second:
/// about a fifth of serve_max_qps (5000-6700/s with this pool). The
/// service's dispatcher runs one batch at a time, so its latency grows
/// faster than the host slows: with a CPU thief taking ~15% of the cores,
/// the serve p50 rose 1.45x at 1000/s but 1.95x at 2000/s.
constexpr double kServeQps = 1000.0;
/// The ladder serve_max_qps climbs: geometric 5% steps.
constexpr double kLadderLo = 1000.0;
constexpr double kLadderHi = 16000.0;
constexpr double kLadderStep = 1.05;
/// A rung passes when its tail latency is at most this, nothing is refused,
/// and the backlog does not grow.
constexpr double kLatencyLimitMs = 100.0;
/// Served-query latencies are summarized per kLatencyWindowNs of due times
/// and reported as medians over the windows (stats.h, SummarizeWindows).
constexpr uint64_t kLatencyWindowNs = 250'000'000;
/// The fixed-rate serve_live phase, the scan phase and the ingest phase
/// each run as this many equal slices, interleaved (Bench::Main).
constexpr int kSlices = 6;
/// Set-up tables the scan slices read, slice i the (i % kScanTables)-th, so
/// the scan figures span several builds' memory layouts.
constexpr int kScanTables = 3;
static_assert(kScanTables <= kSetupReps, "scan tables come from the set-ups");
/// Result-cache budget; holds the whole hot dashboard set.
constexpr uint64_t kResultCacheBytes = uint64_t{16} << 20;
/// The load generator fell behind its schedule, making the run invalid,
/// when its median lateness exceeds this. Its lateness tail is reported
/// (gen.lag_tail_ms) but does not invalidate: single stalls of the host
/// reach 35 ms while the generator keeps its schedule.
constexpr double kMaxLagP50Ms = 1.0;
/// The exec counters the traced scan phase sums per class.
constexpr const char* kScanCounters[] = {
    "scan.values_decoded", "scan.chunks_pruned", "scan.chunks_full",
    "scan.chunks_executed", "scan.rows_matched", "gather.rows"};
constexpr int kNumScanCounters = 6;
/// The sparse scan tail is read per group of this many consecutive sparse
/// scans (about p89, like the dense tail of ~90 scans a run) and reported
/// as the median over groups. Stalls of the host of 2-20 ms hit ~5% of
/// these 1 ms scans in a slice where 2-3% of the CPU time is stolen, so a
/// per-slice tail (p95.5 of ~230) read the stalls: it ranged 1.1-4.6 ms
/// between slices of one run and spread 0.33 over ten seeds.
constexpr size_t kSparseTailGroup = 100;
/// Scan queries per class the traced run replays through the exec layer.
constexpr int kReplayQueriesPerClass = 8;

// --- Plumbing ------------------------------------------------------------------

[[noreturn]] void Fatal(const std::string& what) {
  std::fprintf(stderr, "perfbench: FATAL %s\n", what.c_str());
  std::exit(2);
}

void Must(const Status& status, const char* what) {
  if (!status.ok()) Fatal(std::string(what) + ": " + status.ToString());
}

template <typename T>
T Must(Result<T> result, const char* what) {
  Must(result.status(), what);
  return std::move(result).ValueOrDie();
}

double MsOf(uint64_t ns) { return static_cast<double>(ns) / 1e6; }
double SecondsOf(uint64_t ns) { return static_cast<double>(ns) / 1e9; }
double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// nproc - 2 workers: the load generator and the service's dispatcher
/// thread each keep a core. With nproc - 1 workers, five busy threads on
/// four cores left the generator up to 10 ms late and widened the serve
/// tails' run-to-run spread.
uint64_t PoolThreads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n > 2 ? n - 2 : 1;
}

/// Registry deltas over one measured window.
class RegistryWindow {
 public:
  RegistryWindow() : before_(recomp::obs::Registry::Get().Snapshot()) {}
  void Close() { after_ = recomp::obs::Registry::Get().Snapshot(); }

  double Counter(const std::string& name) const {
    return static_cast<double>(after_.counter(name) - before_.counter(name));
  }
  recomp::obs::HistogramSnapshot Histogram(const std::string& name) const {
    const recomp::obs::HistogramSnapshot a = after_.histogram(name);
    const recomp::obs::HistogramSnapshot b = before_.histogram(name);
    recomp::obs::HistogramSnapshot d;
    for (int i = 0; i < recomp::obs::kHistogramBuckets; ++i) {
      d.buckets[i] = a.buckets[i] - b.buckets[i];
      d.count += d.buckets[i];
    }
    d.sum = a.sum - b.sum;
    return d;
  }

 private:
  recomp::obs::MetricsSnapshot before_;
  recomp::obs::MetricsSnapshot after_;
};

void AddHistogram(recomp::obs::HistogramSnapshot* into,
                  const recomp::obs::HistogramSnapshot& h) {
  for (int b = 0; b < recomp::obs::kHistogramBuckets; ++b) {
    into->buckets[b] += h.buckets[b];
  }
  into->count += h.count;
  into->sum += h.sum;
}

/// The tail (ChooseTail over the bucket counts) of a histogram, read as the
/// upper bound of the bucket holding the picked sample; 0 when empty.
double HistogramTail(const recomp::obs::HistogramSnapshot& h) {
  if (h.count == 0) return 0.0;
  const TailPick pick = ChooseTail(h.count);
  const uint64_t index = pick.valid ? pick.index : h.count - 1;
  uint64_t seen = 0;
  for (int b = 0; b < recomp::obs::kHistogramBuckets; ++b) {
    seen += h.buckets[b];
    if (seen > index) {
      return static_cast<double>(recomp::obs::HistogramBucketBound(b));
    }
  }
  return 0.0;
}

template <typename T>
bool ColumnEquals(const AnyColumn& got, const Column<T>& want, uint64_t n) {
  if (got.is_packed() || got.type() != recomp::TypeIdOf<T>() ||
      got.size() != n) {
    return false;
  }
  const Column<T>& values = got.As<T>();
  return std::equal(values.begin(), values.end(), want.begin());
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos && colon + 2 <= line.size()) {
        return line.substr(colon + 2);
      }
    }
  }
  return "unknown";
}

/// The machine's {steal, total} CPU time so far, in clock ticks, from
/// /proc/stat; {0, 0} if unreadable. Steal is time the hypervisor ran
/// someone else on this machine's virtual CPUs.
std::pair<uint64_t, uint64_t> CpuTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  if (cpu != "cpu") return {0, 0};
  uint64_t field = 0;
  uint64_t total = 0;
  uint64_t steal = 0;
  for (int i = 0; i < 8 && in >> field; ++i) {
    total += field;
    if (i == 7) steal = field;
  }
  return {steal, total};
}

std::string TailNote(const Summary& s) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "p%.2f of n=%llu", s.tail_percentile,
                static_cast<unsigned long long>(s.n));
  return buf;
}

/// "a b c": the per-slice figures a note lists.
std::string ListOf(const std::vector<double>& values) {
  std::string out;
  for (double v : values) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%s%.4g", out.empty() ? "" : " ", v);
    out += buf;
  }
  return out;
}

/// Whole windows of `window_ns` in `seconds` (at least one).
uint64_t Windows(double seconds, uint64_t window_ns) {
  return std::max<uint64_t>(
      1, static_cast<uint64_t>(seconds * 1e9 / static_cast<double>(window_ns)));
}

std::string WindowNote(const WindowedSummary& s, const char* what) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "median over %llu windows of each %s",
                static_cast<unsigned long long>(s.windows), what);
  std::string note = buf;
  if (std::string(what) == "tail") {
    const auto [lo, hi] =
        std::minmax_element(s.window_tails.begin(), s.window_tails.end());
    std::snprintf(buf, sizeof(buf), " (p%.2f; windows %.4g..%.4g)",
                  s.tail_percentile, s.windows == 0 ? 0.0 : *lo,
                  s.windows == 0 ? 0.0 : *hi);
    note += buf;
  }
  std::snprintf(buf, sizeof(buf), ", n=%llu",
                static_cast<unsigned long long>(s.n));
  return note + buf;
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_dir = ".";
  /// RetainFreedMemory() took effect.
  bool heap_retained = false;
};

/// Makes glibc malloc keep freed memory for reuse, as a long-running server
/// would: blocks up to 32 MiB (its limit) come from the heap instead of a
/// fresh mmap each, and the heap is not trimmed below 1 GiB. With glibc's
/// defaults every dense scan's multi-MiB result buffers were fresh mappings
/// whose page faults took ~15% of the scan and, on a 4-vCPU VM, varied from
/// one second to the next: dense p50 per slice ranged 99-148 ms in one run
/// (4x the page faults), against 98-115 ms with memory kept. Returns false
/// where the settings do not apply (not glibc) or were refused.
bool RetainFreedMemory() {
#if defined(__GLIBC__)
  return mallopt(M_MMAP_THRESHOLD, 32 << 20) == 1 &&
         mallopt(M_TRIM_THRESHOLD, 1 << 30) == 1;
#else
  return false;
#endif
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;
};

/// One query in flight through the service.
struct InFlight {
  QueryService::ResultFuture future;
  Query query;
  uint64_t due_ns = 0;
  uint64_t trace = 0;
  uint64_t span = 0;
  uint64_t submitted_ns = 0;
  /// When the generator first saw the answer ready.
  uint64_t done_ns = 0;
};

/// A service answer kept for the check after the timed phase.
struct Answer {
  Query query;
  Digest digest;
};

struct OpenLoopResult {
  std::vector<double> latency_ms;  ///< Due time to completion, answered ones.
  std::vector<uint64_t> latency_at_ns;  ///< Each latency's due offset.
  std::vector<double> lag_ms;      ///< Generator lateness per arrival.
  std::vector<double> append_ms;   ///< AppendBatch call latency.
  std::vector<double> submit_us;   ///< Submit call latency.
  uint64_t queries = 0;
  uint64_t refused = 0;  ///< Submit refused by admission control.
  uint64_t errors = 0;   ///< Answered with an error status.
  uint64_t appends = 0;
  uint64_t append_errors = 0;
  /// Queries unanswered when the last arrival was issued.
  uint64_t outstanding_at_end = 0;
  bool aborted = false;
  uint64_t wall_ns = 0;
  std::vector<Answer> answers;
};

// --- The run ---------------------------------------------------------------------

class Bench {
 public:
  explicit Bench(Options options)
      : opt_(std::move(options)),
        pool_(PoolThreads()),
        ctx_{&pool_},
        tracer_(opt_.trace) {}

  int Main();

 private:
  /// Seconds a phase measures: the full --seconds for the named workload
  /// and always for serve_live, whose windowed tail needs its ~40 windows
  /// (with half as many its run-to-run spread doubled), and for scan, whose
  /// dense class gets only ~7 queries a second (with half as many its p50
  /// spread past 0.25 over ten seeds); half for ingest when not named.
  double Budget(const char* workload) const {
    const std::string phase = workload;
    return opt_.workload == phase || phase == "serve_live" || phase == "scan"
               ? opt_.seconds
               : std::max(1.0, opt_.seconds / 2);
  }
  double RungSeconds() const {
    return std::clamp(opt_.seconds / 10.0, 0.5, 2.0);
  }
  void PutE2E(std::string name, double value, std::string unit,
              std::string note = "") {
    e2e_.push_back({std::move(name), value, std::move(unit), std::move(note)});
  }
  /// An end-to-end figure printed with the others but left out of the JSON
  /// result, so no run is gated on it: the serve_live latencies and rates,
  /// which CPU time the hypervisor takes from this machine moves further
  /// than any bound up to 0.25 (README.md, "Printed but not gated").
  void PutUngated(std::string name, double value, std::string unit,
                  std::string note = "") {
    e2e_ungated_.push_back(
        {std::move(name), value, std::move(unit), std::move(note)});
  }
  void PutLayer(std::string name, double value, std::string unit,
                std::string note = "") {
    layer_.push_back(
        {std::move(name), value, std::move(unit), std::move(note)});
  }
  void Wrong(const std::string& what) {
    if (correct_) {
      std::fprintf(stderr, "perfbench: WRONG ANSWER %s\n", what.c_str());
    }
    correct_ = false;
  }
  void Count(const Status& status) {
    ++attempted_;
    if (!status.ok()) ++failed_;
  }

  void Setup();
  double Load(Table& table, uint64_t trace, uint64_t parent,
              uint64_t* append_ns, int64_t* backlog_max, double* flush_s);
  void CheckTableEqualsData(const Table& table, uint64_t rows);
  void IngestSlice(int slice);
  void IngestReport();
  void ScanSlice(int slice);
  void ScanReport();
  void StartService();
  void ServeSlice(int slice);
  void ServeReport();
  void MaxRatePhase();
  OpenLoopResult OpenLoop(QueryService& service, ServeQueryStream& stream,
                          double qps, double seconds, uint64_t seed,
                          bool keep_answers);
  void CheckAnswers(const std::vector<Answer>& answers);
  double Ladder(QueryService& service, ServeQueryStream& stream);
  void CoreReplay();
  void ExecReplay();
  void TraceOverhead();
  void PrintMachineNote();
  void PrintResult();

  Options opt_;
  ThreadPool pool_;
  ExecContext ctx_;
  Tracer tracer_;

  std::unique_ptr<DataSet> data_;
  /// The base rows pre-sliced into AppendBatch inputs at set-up, so no
  /// ingest clock times the slicing.
  std::vector<std::vector<AnyColumn>> batches_;
  std::unique_ptr<Table> table_;
  /// The set-up table as loaded (sealed, before any live append): what the
  /// scan phase and the traced replays read.
  /// Snapshots of the last kScanTables set-up tables, taken before any
  /// append; the replays read the last.
  std::vector<TableSnapshot> scan_bases_;
  /// Live from the fixed-rate serve_live phase through the ladder, which
  /// runs last; declared after table_, so it stops first.
  std::unique_ptr<QueryService> service_;
  std::unique_ptr<ServeQueryStream> serve_stream_;
  /// The fixed-rate serve_live slices, accumulated (ServeSlice).
  struct ServeTotals {
    OpenLoopResult loop;
    uint64_t windows = 0;
    uint64_t chunks_decoded = 0;
    uint64_t chunk_evaluations = 0;
    uint64_t subsumed_evaluations = 0;
    std::map<std::string, double> counters;
    std::map<std::string, recomp::obs::HistogramSnapshot> histograms;
  };
  ServeTotals serve_totals_;
  /// The ingest slices, accumulated (IngestSlice).
  struct IngestTotals {
    std::vector<double> mb_s;
    /// Median of each slice's passes, for the note.
    std::vector<double> slice_mb_s;
    std::vector<double> flush_s;
    double storage_ratio = 0.0;
    double column_bytes[kNumColumns] = {};
    uint64_t append_ns = 0;
    int64_t backlog_max = 0;
    double candidates = 0.0;
    double choices = 0.0;
    recomp::obs::HistogramSnapshot seal;
  };
  IngestTotals ingest_totals_;
  std::unique_ptr<ScanQueryStream> scan_stream_;
  /// Scan latencies per slice and class (0 sparse, 1 dense).
  std::vector<double> scan_latency_[kSlices][2];
  /// Per-class sums of kScanCounters, read around every traced scan.
  double scan_counters_[2][kNumScanCounters] = {};
  uint64_t append_cursor_ = 0;
  /// CpuTicks() when the run started, for the machine note.
  std::pair<uint64_t, uint64_t> cpu_start_ = CpuTicks();
  std::vector<uint64_t> clients_;
  uint64_t next_client_ = 0;

  bool correct_ = true;
  bool invalid_ = false;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<Metric> e2e_;
  /// See PutUngated.
  std::vector<Metric> e2e_ungated_;
  std::vector<Metric> layer_;
  /// Scan queries kept for the exec replay, per class.
  std::vector<Query> replay_sparse_;
  std::vector<Query> replay_dense_;
};

void Note(const char* fmt, ...) __attribute__((format(printf, 1, 2)));
void Note(const char* fmt, ...) {
  std::fputs("# ", stdout);
  va_list args;
  va_start(args, fmt);
  std::vprintf(fmt, args);
  va_end(args);
  std::fputc('\n', stdout);
}

void Bench::PrintMachineNote() {
  const char* scalar = std::getenv("RECOMP_FORCE_SCALAR");
  const recomp::obs::MetricsSnapshot snap = Table::MetricsSnapshot();
  const auto [steal, total] = CpuTicks();
  Note("machine: nproc=%u cpu=\"%s\" dispatch.avx2_live=%lld "
       "RECOMP_FORCE_SCALAR=%s build=%s seed=%llu pool_threads=%llu "
       "heap_retained=%d host_steal_pct=%.2f",
       std::thread::hardware_concurrency(), CpuModel().c_str(),
       static_cast<long long>(snap.gauge("dispatch.avx2_live")),
       scalar == nullptr ? "unset" : scalar, PERFBENCH_BUILD_TYPE,
       static_cast<unsigned long long>(opt_.seed),
       static_cast<unsigned long long>(pool_.num_threads()),
       opt_.heap_retained ? 1 : 0,
       100.0 * Ratio(static_cast<double>(steal - cpu_start_.first),
                     static_cast<double>(total - cpu_start_.second)));
}

// --- Set-up and ingest -------------------------------------------------------------

/// Appends the base rows in kIngestBatchRows batches and flushes. Returns
/// the seconds from the first append until Flush returned.
double Bench::Load(Table& table, uint64_t trace, uint64_t parent,
                   uint64_t* append_ns, int64_t* backlog_max,
                   double* flush_s) {
  static recomp::obs::Gauge& backlog =
      recomp::obs::Registry::Get().GetGauge("store.stored_plain_backlog");
  const uint64_t start = NowNs();
  for (const std::vector<AnyColumn>& batch : batches_) {
    const uint64_t t0 = NowNs();
    Status status;
    {
      Tracer::Scope span(&tracer_, "store", "AppendBatch", trace, parent);
      status = table.AppendBatch(batch);
    }
    if (append_ns != nullptr) *append_ns += NowNs() - t0;
    Count(status);
    if (backlog_max != nullptr) {
      *backlog_max = std::max(*backlog_max, backlog.Value());
    }
  }
  const uint64_t flush_start = NowNs();
  Status flushed;
  {
    Tracer::Scope span(&tracer_, "store", "Flush", trace, parent);
    flushed = table.Flush();
  }
  const uint64_t end = NowNs();
  Count(flushed);
  if (flush_s != nullptr) *flush_s = SecondsOf(end - flush_start);
  return SecondsOf(end - start);
}

void Bench::Setup() {
  // serve_live appends kAppendRows every kAppendPeriodNs through its warm-up,
  // its fixed-rate phase and the ladder; generate that many rows beyond the
  // base rows up front.
  const double ladder_rungs =
      static_cast<double>(RateLadder(kLadderLo, kLadderHi, kLadderStep).size());
  const double serve_seconds = 1.0 + Budget("serve_live") +
                               RungSeconds() * (std::log2(ladder_rungs) + 3);
  const uint64_t reserve_rows =
      (static_cast<uint64_t>(serve_seconds * 1e9 /
                             static_cast<double>(kAppendPeriodNs)) +
       1) *
      kAppendRows;

  std::vector<double> samples;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    table_.reset();
    batches_.clear();
    data_.reset();
    const uint64_t trace = tracer_.NewTrace();
    Tracer::Scope root(&tracer_, "bench", "setup", trace);
    const uint64_t start = NowNs();
    {
      Tracer::Scope span(&tracer_, "gen", "GenerateData", trace, root.id());
      data_ = std::make_unique<DataSet>(
          GenerateData(kBaseRows, reserve_rows, opt_.seed));
    }
    for (uint64_t b = 0; b < kBaseRows; b += kIngestBatchRows) {
      batches_.push_back(
          data_->Slice(b, std::min(kBaseRows, b + kIngestBatchRows)));
    }
    {
      Tracer::Scope span(&tracer_, "store", "Create", trace, root.id());
      table_ = std::make_unique<Table>(
          Must(Table::Create(TableSpecs(kChunkRows), ctx_), "Table::Create"));
    }
    Load(*table_, trace, root.id(), nullptr, nullptr, nullptr);
    samples.push_back(SecondsOf(NowNs() - start));
    if (rep >= kSetupReps - kScanTables) {
      scan_bases_.push_back(Must(table_->Snapshot(), "Snapshot"));
    }
  }
  append_cursor_ = kBaseRows;
  CheckTableEqualsData(*table_, kBaseRows);
  PutE2E("setup_s", Median(samples), "s",
         "median of " + std::to_string(samples.size()) +
             " set-ups (generate + build table)");
  Note("data: base_rows=%llu reserve_rows=%llu chunk_rows=%llu "
       "raw_table_mib=%.1f",
       static_cast<unsigned long long>(kBaseRows),
       static_cast<unsigned long long>(reserve_rows),
       static_cast<unsigned long long>(kChunkRows),
       static_cast<double>(kBaseRows * kRawBytesPerRow) / (1 << 20));
}

/// The correctness gate of every load: each column decompresses to exactly
/// the generated rows.
void Bench::CheckTableEqualsData(const Table& table, uint64_t rows) {
  const TableSnapshot snap = Must(table.Snapshot(), "Snapshot");
  if (snap.rows() != rows) {
    Wrong("table holds " + std::to_string(snap.rows()) + " rows, expected " +
          std::to_string(rows));
    return;
  }
  for (int c = 0; c < kNumColumns; ++c) {
    AnyColumn got;
    {
      Tracer::Scope span(&tracer_, "core", "DecompressChunked", 0);
      got = Must(recomp::DecompressChunked(snap.column(c).chunked(), ctx_),
                 "DecompressChunked");
    }
    bool ok = false;
    switch (c) {
      case 0: ok = ColumnEquals(got, data_->date, rows); break;
      case 1: ok = ColumnEquals(got, data_->qty, rows); break;
      case 2: ok = ColumnEquals(got, data_->cat, rows); break;
      case 3: ok = ColumnEquals(got, data_->price, rows); break;
      default: ok = ColumnEquals(got, data_->amount, rows); break;
    }
    if (!ok) {
      Wrong(std::string("DecompressChunked(") + kColumnNames[c] +
            ") differs from the generated column");
    }
  }
}

void Bench::IngestSlice(int slice) {
  const uint64_t budget_ns =
      static_cast<uint64_t>(Budget("ingest") / kSlices * 1e9);
  IngestTotals& t = ingest_totals_;
  const int min_reps = (kMinIngestReps + kSlices - 1) / kSlices;
  std::unique_ptr<RegistryWindow> window;
  uint64_t slice_start = 0;
  int reps = 0;
  const size_t first_pass = t.mb_s.size();

  // Pass -1, in the first slice only, is the untimed warm-up.
  for (int rep = slice == 0 ? -1 : 0;; ++rep) {
    if (rep == 0) {
      window = std::make_unique<RegistryWindow>();
      slice_start = NowNs();
    }
    const uint64_t trace = tracer_.NewTrace();
    double seconds = 0.0;
    double flush = 0.0;
    uint64_t rep_append_ns = 0;
    {
      Table table =
          Must(Table::Create(TableSpecs(kChunkRows), ctx_), "Table::Create");
      {
        Tracer::Scope root(&tracer_, "bench", "ingest", trace);
        seconds = Load(table, trace, root.id(), &rep_append_ns,
                       rep < 0 ? nullptr : &t.backlog_max, &flush);
      }
      CheckTableEqualsData(table, kBaseRows);
      const TableSnapshot snap = Must(table.Snapshot(), "Snapshot");
      uint64_t payload = 0;
      uint64_t raw = 0;
      for (int c = 0; c < kNumColumns; ++c) {
        const recomp::ChunkedCompressedColumn& col = snap.column(c).chunked();
        payload += col.PayloadBytes();
        raw += col.UncompressedBytes();
        t.column_bytes[c] = static_cast<double>(col.PayloadBytes());
      }
      const double ratio =
          Ratio(static_cast<double>(payload), static_cast<double>(raw));
      if (rep < 0) {
        t.storage_ratio = ratio;
      } else if (ratio != t.storage_ratio) {
        Wrong("storage ratio differs between identical ingest passes");
      }
    }
    if (rep < 0) continue;
    t.mb_s.push_back(static_cast<double>(kBaseRows * kRawBytesPerRow) / 1e6 /
                     seconds);
    t.flush_s.push_back(flush);
    t.append_ns += rep_append_ns;
    if (++reps >= min_reps && NowNs() - slice_start >= budget_ns) break;
  }
  window->Close();
  t.slice_mb_s.push_back(Median(std::vector<double>(
      t.mb_s.begin() + static_cast<ptrdiff_t>(first_pass), t.mb_s.end())));
  t.candidates += window->Counter("analyzer.candidates_considered");
  t.choices += window->Counter("analyzer.choices");
  AddHistogram(&t.seal, window->Histogram("store.seal_ns"));
}

void Bench::IngestReport() {
  const IngestTotals& t = ingest_totals_;
  const Summary s = Summarize(t.mb_s);
  PutE2E("ingest_mb_s", s.p50, "MB/s",
         "median of " + std::to_string(s.n) +
             " passes, first append until Flush returns (slice medians " +
             ListOf(t.slice_mb_s) + ")");
  PutE2E("storage_ratio", t.storage_ratio, "ratio",
         "sum PayloadBytes / sum UncompressedBytes after Flush");

  const double rows = static_cast<double>(kBaseRows * t.mb_s.size());
  PutLayer("store.append_ns_per_row",
           Ratio(static_cast<double>(t.append_ns), rows), "ns");
  PutLayer("store.flush_wait_s", Median(t.flush_s), "s");
  PutLayer("store.seal_ms_per_chunk",
           Ratio(static_cast<double>(t.seal.sum),
                 static_cast<double>(t.seal.count)) /
               1e6,
           "ms", "store.seal_ns histogram");
  PutLayer("store.plain_backlog_max", static_cast<double>(t.backlog_max),
           "chunks", "store.stored_plain_backlog gauge after each append");
  PutLayer("core.candidates_per_chunk", Ratio(t.candidates, t.choices),
           "candidates", "analyzer counters over the seal path");
  for (int c = 0; c < kNumColumns; ++c) {
    PutLayer(std::string("core.bytes_per_value.") + kColumnNames[c],
             t.column_bytes[c] / static_cast<double>(kBaseRows), "B");
  }
}

// --- scan ------------------------------------------------------------------------

void Bench::ScanSlice(int slice) {
  const uint64_t budget_ns =
      static_cast<uint64_t>(Budget("scan") / kSlices * 1e9);
  const TableSnapshot& snap = scan_bases_[slice % kScanTables];
  // Untimed warm-up on each table's first use: two dense and eight sparse
  // scans.
  ScanQueryStream warm_stream(*data_, (opt_.seed ^ 0x5ca1ab1eull) + slice);
  int warm[2] = {0, 0};
  while (slice < kScanTables && (warm[0] < 8 || warm[1] < 2)) {
    const Query q = warm_stream.Next();
    ++warm[q.cls == QueryClass::kDense ? 1 : 0];
    const recomp::exec::ScanResult r =
        Must(recomp::exec::Scan(snap, q.Spec(), ctx_), "warm-up scan");
    if (!(DigestOf(r) == Expect(*data_, q, snap.rows()))) {
      Wrong(std::string("warm-up ") + QueryClassName(q.cls) + " scan");
    }
  }
  if (slice == 0) {
    scan_stream_ = std::make_unique<ScanQueryStream>(*data_, opt_.seed);
  }

  const uint64_t start = NowNs();
  while (NowNs() - start < budget_ns) {
    const Query q = scan_stream_->Next();
    const int cls = q.cls == QueryClass::kDense ? 1 : 0;
    const recomp::exec::ScanSpec spec = q.Spec();
    std::unique_ptr<RegistryWindow> window;
    if (tracer_.enabled()) window = std::make_unique<RegistryWindow>();
    const uint64_t trace = tracer_.NewTrace();
    uint64_t t0 = 0;
    uint64_t t1 = 0;
    const Result<recomp::exec::ScanResult> scanned = [&] {
      Tracer::Scope root(&tracer_, "bench", "scan_query", trace);
      Tracer::Scope span(&tracer_, "exec", "Scan", trace, root.id());
      t0 = NowNs();
      Result<recomp::exec::ScanResult> r = recomp::exec::Scan(snap, spec, ctx_);
      t1 = NowNs();
      return r;
    }();
    Count(scanned.status());
    if (!scanned.ok()) continue;
    const recomp::exec::ScanResult& result = scanned.ValueOrDie();
    scan_latency_[slice][cls].push_back(MsOf(t1 - t0));
    if (window != nullptr) {
      window->Close();
      for (int k = 0; k < kNumScanCounters; ++k) {
        scan_counters_[cls][k] += window->Counter(kScanCounters[k]);
      }
    }
    const Digest got = DigestOf(result);
    const Digest want = Expect(*data_, q, snap.rows());
    if (!(got == want)) {
      Wrong(std::string(QueryClassName(q.cls)) + " scan: got " +
            got.ToString() + " want " + want.ToString());
    }
    std::vector<Query>& keep = cls == 1 ? replay_dense_ : replay_sparse_;
    if (static_cast<int>(keep.size()) < kReplayQueriesPerClass) {
      keep.push_back(q);
    }
  }
}

/// Both classes report the median over slices of each slice's p50, like the
/// serve windows, so a slow spell of the host through one slice moves it
/// little. Sparse scans (~1400 a run) report the median over groups of
/// kSparseTailGroup of each group's tail; dense scans, ~90 a run, pool
/// their samples for the tail so it stays a tail.
void Bench::ScanReport() {
  const char* names[2] = {"sparse", "dense"};
  for (int cls = 0; cls < 2; ++cls) {
    std::vector<double> pooled;  // In the order the scans ran.
    std::vector<double> p50s;
    for (int slice = 0; slice < kSlices; ++slice) {
      const std::vector<double>& v = scan_latency_[slice][cls];
      pooled.insert(pooled.end(), v.begin(), v.end());
      p50s.push_back(Summarize(v).p50);
    }
    const Summary all = Summarize(pooled);
    const std::string name = std::string("scan_") + names[cls];
    PutE2E(name + "_p50_ms", Median(p50s), "ms",
           "median over " + std::to_string(kSlices) + " slices of each p50 (" +
               ListOf(p50s) + "), n=" + std::to_string(all.n));
    if (cls == 0) {
      // Groups of kSparseTailGroup; a last partial group joins the one
      // before it.
      std::vector<double> tails;
      double percentile = 0.0;
      const size_t groups =
          std::max<size_t>(1, pooled.size() / kSparseTailGroup);
      for (size_t g = 0; g < groups; ++g) {
        const auto first =
            pooled.begin() + static_cast<ptrdiff_t>(g * kSparseTailGroup);
        const auto last =
            g + 1 == groups ? pooled.end()
                            : first + static_cast<ptrdiff_t>(kSparseTailGroup);
        const Summary s = Summarize(std::vector<double>(first, last));
        tails.push_back(s.tail);
        if (g == 0) percentile = s.tail_percentile;
      }
      char note[160];
      std::snprintf(note, sizeof(note),
                    "median over %zu groups of %zu scans of each tail (p%.2f), "
                    "n=%llu",
                    groups, kSparseTailGroup, percentile,
                    static_cast<unsigned long long>(all.n));
      PutE2E(name + "_tail_ms", Median(tails), "ms", note);
    } else {
      PutE2E(name + "_tail_ms", all.tail, "ms", TailNote(all));
    }
    if (!tracer_.enabled()) continue;
    // "Decoded" counts every value the scan produced from compressed form:
    // decoded to evaluate a filter (scan.values_decoded) or gathered to
    // project or aggregate (gather.rows).
    const double n = static_cast<double>(std::max<uint64_t>(1, all.n));
    const double* c = scan_counters_[cls];
    const double decoded = c[0] + c[5];
    const double chunks = c[1] + c[2] + c[3];
    PutLayer(std::string("exec.values_decoded_per_query.") + names[cls],
             decoded / n, "values", "scan.values_decoded + gather.rows");
    PutLayer(std::string("exec.chunks_pruned_frac.") + names[cls],
             Ratio(c[1], chunks), "ratio");
    PutLayer(std::string("exec.matched_per_decoded.") + names[cls],
             Ratio(c[4], decoded), "ratio");
  }
}

// --- serve_live ------------------------------------------------------------------

OpenLoopResult Bench::OpenLoop(QueryService& service, ServeQueryStream& stream,
                               double qps, double seconds, uint64_t seed,
                               bool keep_answers) {
  OpenLoopResult out;
  const std::vector<uint64_t> arrivals = PoissonSchedule(
      qps / ServeQueryStream::MeanQueriesPerEvent(), seconds, seed);
  const uint64_t n_appends =
      static_cast<uint64_t>(seconds * 1e9 / static_cast<double>(kAppendPeriodNs));
  // Stop issuing once this many queries are unanswered: the rung has failed
  // and more load only lengthens the drain.
  const uint64_t abort_backlog =
      static_cast<uint64_t>(qps * kLatencyLimitMs / 1e3 * 8) + 256;
  std::vector<InFlight> pending;
  std::vector<InFlight> ready;
  const uint64_t start = NowNs() + 1'000'000;

  const auto poll = [&]() {
    // Stamp every ready answer before reading any, so the time spent
    // digesting one answer does not count against the next.
    for (size_t i = 0; i < pending.size();) {
      if (pending[i].future.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        ++i;
        continue;
      }
      pending[i].done_ns = NowNs();
      ready.push_back(std::move(pending[i]));
      pending[i] = std::move(pending.back());
      pending.pop_back();
    }
    for (InFlight& f : ready) {
      Result<recomp::exec::ScanResult> result = f.future.get();
      tracer_.Record("service", "await", f.trace, f.span, f.submitted_ns,
                     f.done_ns);
      tracer_.Record("bench", "query", f.trace, 0, f.due_ns, f.done_ns,
                     f.span);
      if (result.ok()) {
        out.latency_ms.push_back(MsOf(f.done_ns - f.due_ns));
        out.latency_at_ns.push_back(f.due_ns - start);
        if (keep_answers) out.answers.push_back({f.query, DigestOf(*result)});
      } else {
        ++out.errors;
      }
    }
    ready.clear();
  };
  const auto wait_until = [&](uint64_t due) {
    while (true) {
      poll();
      const uint64_t now = NowNs();
      if (now >= due) return;
      const uint64_t left = due - now;
      if (left > 150'000) {
        std::this_thread::sleep_for(std::chrono::microseconds(
            std::min<uint64_t>(100, (left - 100'000) / 1000)));
      } else {
        std::this_thread::yield();
      }
    }
  };

  size_t ai = 0;
  uint64_t ki = 0;
  while (ai < arrivals.size() || ki < n_appends) {
    const uint64_t append_due = ki * kAppendPeriodNs;
    const bool is_append =
        ki < n_appends && (ai >= arrivals.size() || append_due <= arrivals[ai]);
    const uint64_t due = start + (is_append ? append_due : arrivals[ai]);
    wait_until(due);
    const uint64_t now = NowNs();
    out.lag_ms.push_back(MsOf(now - due));
    if (is_append) {
      ++ki;
      if (append_cursor_ + kAppendRows > data_->rows()) continue;
      const std::vector<AnyColumn> rows =
          data_->Slice(append_cursor_, append_cursor_ + kAppendRows);
      const uint64_t trace = tracer_.NewTrace();
      const uint64_t root = tracer_.NewSpanId();
      const uint64_t t0 = NowNs();
      Status status;
      {
        Tracer::Scope span(&tracer_, "store", "AppendBatch", trace, root);
        status = table_->AppendBatch(rows);
      }
      const uint64_t t1 = NowNs();
      tracer_.Record("bench", "append", trace, 0, due, t1, root);
      ++out.appends;
      if (status.ok()) {
        append_cursor_ += kAppendRows;
        out.append_ms.push_back(MsOf(t1 - t0));
      } else {
        ++out.append_errors;
      }
      continue;
    }
    ++ai;
    for (const Query& q : stream.NextEvent(data_->date[append_cursor_ - 1])) {
      InFlight f;
      f.query = q;
      f.due_ns = due;
      f.trace = tracer_.NewTrace();
      f.span = tracer_.NewSpanId();
      const uint64_t client = clients_[next_client_++ % clients_.size()];
      const uint64_t t0 = NowNs();
      Result<QueryService::ResultFuture> submitted = [&] {
        Tracer::Scope span(&tracer_, "service", "Submit", f.trace, f.span);
        return service.Submit(client, q.Spec());
      }();
      f.submitted_ns = NowNs();
      out.submit_us.push_back(static_cast<double>(f.submitted_ns - t0) / 1e3);
      ++out.queries;
      if (!submitted.ok()) {
        ++out.refused;
        continue;
      }
      f.future = std::move(submitted).ValueOrDie();
      pending.push_back(std::move(f));
    }
    if (pending.size() > abort_backlog) {
      out.aborted = true;
      break;
    }
  }
  out.outstanding_at_end = pending.size();
  const uint64_t drain_start = NowNs();
  while (!pending.empty()) {
    poll();
    if (NowNs() - drain_start > 120'000'000'000ull) {
      Fatal("service did not answer within 120 s");
    }
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  out.wall_ns = NowNs() - start;
  // Seal jobs the appends started finish here, not in the next phase.
  for (const char* name : kColumnNames) {
    Must(table_->column(name), "column")->WaitForSeals();
  }
  return out;
}

void Bench::CheckAnswers(const std::vector<Answer>& answers) {
  for (const Answer& a : answers) {
    if (a.digest.rows_scanned < kBaseRows ||
        a.digest.rows_scanned > append_cursor_) {
      Wrong("served scan saw " + std::to_string(a.digest.rows_scanned) +
            " rows, outside [" + std::to_string(kBaseRows) + ", " +
            std::to_string(append_cursor_) + "]");
      return;
    }
    const Digest want = Expect(*data_, a.query, a.digest.rows_scanned);
    if (!(a.digest == want)) {
      Wrong(std::string("served ") + QueryClassName(a.query.cls) +
            " query: got " + a.digest.ToString() + " want " + want.ToString());
      return;
    }
  }
}

double Bench::Ladder(QueryService& service, ServeQueryStream& stream) {
  const std::vector<double> rungs =
      RateLadder(kLadderLo, kLadderHi, kLadderStep);
  // Binary search for the highest passing rung, taking the ladder as
  // monotone: a rate that fails makes every higher one fail.
  int lo = -1;  // Highest rung known to pass.
  int hi = static_cast<int>(rungs.size());  // Lowest rung known to fail.
  uint64_t rung_seed = opt_.seed * 7919 + 17;
  while (hi - lo > 1) {
    const int mid = lo + (hi - lo) / 2;
    const double qps = rungs[static_cast<size_t>(mid)];
    const OpenLoopResult r = OpenLoop(service, stream, qps, RungSeconds(),
                                      rung_seed++, /*keep_answers=*/true);
    CheckAnswers(r.answers);
    const WindowedSummary s =
        SummarizeWindows(r.latency_ms, r.latency_at_ns, kLatencyWindowNs,
                         Windows(RungSeconds(), kLatencyWindowNs));
    const uint64_t backlog_limit =
        static_cast<uint64_t>(qps * kLatencyLimitMs / 1e3) + 16;
    const bool pass = !r.aborted && r.refused == 0 && r.errors == 0 &&
                      r.outstanding_at_end <= backlog_limit &&
                      s.tail <= kLatencyLimitMs;
    Note("ladder rung %.0f qps: tail %.2f ms (%s) outstanding=%llu "
         "refused=%llu aborted=%d -> %s",
         qps, s.tail, WindowNote(s, "tail").c_str(),
         static_cast<unsigned long long>(r.outstanding_at_end),
         static_cast<unsigned long long>(r.refused), r.aborted ? 1 : 0,
         pass ? "pass" : "fail");
    (pass ? lo : hi) = mid;
  }
  if (lo < 0) return 0.0;
  return rungs[static_cast<size_t>(lo)];
}

void Bench::StartService() {
  ServiceOptions options;
  // Half the table's decoded size: the workload is larger than this cache.
  options.decoded_cache_bytes = kBaseRows * kRawBytesPerRow / 2;
  options.result_cache_bytes = kResultCacheBytes;
  service_ = Must(QueryService::Create(table_.get(), options, ctx_),
                  "QueryService::Create");
  clients_.clear();
  for (int c = 0; c < kClients; ++c) {
    clients_.push_back(service_->RegisterClient());
  }
  serve_stream_ = std::make_unique<ServeQueryStream>(*data_, opt_.seed);
  // The hot dashboard set's results are mostly their positions vectors.
  uint64_t hot_bytes = 0;
  for (const Query& q : serve_stream_->HotSet(data_->date_max())) {
    hot_bytes += Expect(*data_, q, kBaseRows).positions * sizeof(uint32_t);
  }
  Note("serve_live: offered=%.0f qps decoded_cache_bytes=%llu "
       "result_cache_bytes=%llu (hot set results ~%llu) appends=%llu rows "
       "every %llu ms",
       kServeQps, static_cast<unsigned long long>(options.decoded_cache_bytes),
       static_cast<unsigned long long>(options.result_cache_bytes),
       static_cast<unsigned long long>(hot_bytes),
       static_cast<unsigned long long>(kAppendRows),
       static_cast<unsigned long long>(kAppendPeriodNs / 1'000'000));

  // Untimed warm-up pass; its answers are checked all the same.
  const OpenLoopResult warm = OpenLoop(*service_, *serve_stream_, kServeQps,
                                       0.5, opt_.seed ^ 0x77ull, true);
  CheckAnswers(warm.answers);
}

void Bench::ServeSlice(int slice) {
  const double seconds = Budget("serve_live") / kSlices;
  const uint64_t windows = Windows(seconds, kLatencyWindowNs);
  RegistryWindow window;
  const recomp::service::ServiceStats before = service_->stats();
  OpenLoopResult r = OpenLoop(*service_, *serve_stream_, kServeQps, seconds,
                              opt_.seed * kSlices + slice, true);
  window.Close();
  const recomp::service::ServiceStats after = service_->stats();
  CheckAnswers(r.answers);

  ServeTotals& t = serve_totals_;
  // Window w of slice s becomes window s * windows + w of the whole phase.
  for (size_t i = 0; i < r.latency_ms.size(); ++i) {
    const uint64_t w =
        std::min<uint64_t>(r.latency_at_ns[i] / kLatencyWindowNs, windows - 1);
    t.loop.latency_ms.push_back(r.latency_ms[i]);
    t.loop.latency_at_ns.push_back(
        (static_cast<uint64_t>(slice) * windows + w) * kLatencyWindowNs);
  }
  t.windows += windows;
  const auto append = [](std::vector<double>* to,
                         const std::vector<double>& from) {
    to->insert(to->end(), from.begin(), from.end());
  };
  append(&t.loop.lag_ms, r.lag_ms);
  append(&t.loop.append_ms, r.append_ms);
  append(&t.loop.submit_us, r.submit_us);
  t.loop.queries += r.queries;
  t.loop.refused += r.refused;
  t.loop.errors += r.errors;
  t.loop.appends += r.appends;
  t.loop.append_errors += r.append_errors;
  t.loop.wall_ns += r.wall_ns;
  t.chunks_decoded += after.chunks_decoded - before.chunks_decoded;
  t.chunk_evaluations += after.chunk_evaluations - before.chunk_evaluations;
  t.subsumed_evaluations +=
      after.subsumed_evaluations - before.subsumed_evaluations;
  for (const char* name :
       {"service.result_cache.hits", "service.selection_cache.hits",
        "service.selection_cache.misses", "service.result_cache.dedup_hits",
        "pool.busy_ns"}) {
    t.counters[name] += window.Counter(name);
  }
  for (const char* name :
       {"service.queue_wait_ns", "service.batch_size", "pool.wait_ns.normal",
        "pool.wait_ns.low", "pool.wait_ns.high"}) {
    AddHistogram(&t.histograms[name], window.Histogram(name));
  }
}

void Bench::ServeReport() {
  const ServeTotals& t = serve_totals_;
  const OpenLoopResult& r = t.loop;
  attempted_ += r.queries + r.appends;
  failed_ += r.refused + r.errors + r.append_errors;

  const WindowedSummary lat = SummarizeWindows(
      r.latency_ms, r.latency_at_ns, kLatencyWindowNs, t.windows);
  const Summary app = Summarize(r.append_ms);
  const Summary lag = Summarize(r.lag_ms);
  PutUngated("serve_p50_ms", lat.p50, "ms", WindowNote(lat, "p50"));
  PutUngated("serve_tail_ms", lat.tail, "ms", WindowNote(lat, "tail"));
  PutUngated("append_tail_ms", app.tail, "ms", TailNote(app));
  Note("serve_live: queries=%llu refused=%llu errors=%llu appends=%llu "
       "gen.lag_tail_ms=%.3f (%s)",
       static_cast<unsigned long long>(r.queries),
       static_cast<unsigned long long>(r.refused),
       static_cast<unsigned long long>(r.errors),
       static_cast<unsigned long long>(r.appends), lag.tail,
       TailNote(lag).c_str());
  if (lag.p50 > kMaxLagP50Ms) {
    Note("INVALID: the load generator ran late: median %.3f ms (limit %.1f)",
         lag.p50, kMaxLagP50Ms);
    invalid_ = true;
  }
  PutLayer("gen.lag_tail_ms", lag.tail, "ms", TailNote(lag));
  const auto counter = [&](const char* name) { return t.counters.at(name); };
  const auto histogram = [&](const char* name) -> const auto& {
    return t.histograms.at(name);
  };
  const double queries = static_cast<double>(r.queries);
  const double decoded = static_cast<double>(t.chunks_decoded);
  const double evaluated = static_cast<double>(t.chunk_evaluations);
  PutLayer("service.submit_us", Median(r.submit_us), "us", "median");
  const double queue_wait_ms = histogram("service.queue_wait_ns").Mean() / 1e6;
  PutLayer("service.queue_wait_ms", queue_wait_ms, "ms", "mean");
  PutLayer("service.batch_size_mean", histogram("service.batch_size").Mean(),
           "queries");
  PutLayer("service.sharing_ratio", Ratio(evaluated, decoded), "ratio");
  PutLayer("service.decodes_per_query", Ratio(decoded, queries), "chunks");
  PutLayer("service.result_hit_ratio",
           Ratio(counter("service.result_cache.hits"), queries), "ratio");
  const double sel_hits = counter("service.selection_cache.hits");
  PutLayer("service.selection_hit_ratio",
           Ratio(sel_hits,
                 sel_hits + counter("service.selection_cache.misses")),
           "ratio");
  PutLayer("service.dedup_ratio",
           Ratio(counter("service.result_cache.dedup_hits"), queries),
           "ratio");
  PutLayer("service.subsumed_frac",
           Ratio(static_cast<double>(t.subsumed_evaluations), evaluated),
           "ratio");
  const double pool_ns = static_cast<double>(r.wall_ns) *
                         static_cast<double>(pool_.num_threads());
  const double busy_frac = Ratio(counter("pool.busy_ns"), pool_ns);
  PutLayer("pool.busy_frac", busy_frac, "ratio");
  // Printed untraced too: they tell a slow host from a saturated service.
  Note("serve_live: service.queue_wait_ms=%.3f (mean) pool.busy_frac=%.3f",
       queue_wait_ms, busy_frac);
  recomp::obs::HistogramSnapshot pool_wait;
  for (const char* p :
       {"pool.wait_ns.normal", "pool.wait_ns.low", "pool.wait_ns.high"}) {
    AddHistogram(&pool_wait, histogram(p));
  }
  PutLayer("pool.wait_tail_ms", HistogramTail(pool_wait) / 1e6, "ms",
           "bucket upper bound");

  if (tracer_.enabled()) {
    std::vector<double> snapshot_us;
    for (int i = 0; i < 50; ++i) {
      const uint64_t t0 = NowNs();
      {
        Tracer::Scope span(&tracer_, "store", "Snapshot", 0);
        Must(table_->Snapshot(), "Snapshot");
      }
      snapshot_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
    }
    PutLayer("store.snapshot_us", Median(snapshot_us), "us",
             "median Table::Snapshot on the live table");
  }
}

void Bench::MaxRatePhase() {
  // Peak memory of the workload itself, before the ladder deliberately
  // overloads the service and queues thousands of answers.
  PutE2E("peak_rss_mb", PeakRssMb(), "MB", "VmHWM before the rate ladder");

  // The ladder is a search, not the workload: it stays out of the trace.
  const bool tracing = tracer_.enabled();
  tracer_.set_enabled(false);
  const double max_qps = Ladder(*service_, *serve_stream_);
  tracer_.set_enabled(tracing);
  PutUngated("serve_max_qps", max_qps, "1/s",
             "highest ladder rung with tail <= " +
                 std::to_string(static_cast<int>(kLatencyLimitMs)) +
                 " ms, nothing refused, no growing backlog");

  service_->Stop();
  service_.reset();
}

// --- Traced-run replays ------------------------------------------------------------

/// Replays every base chunk through the functions the seal path calls:
/// ComputeStats, RankCandidates, Compress with the top choice and
/// ComputeZoneMap; then FusedDecompress over the sealed chunks by shape.
void Bench::CoreReplay() {
  const uint64_t trace = tracer_.NewTrace();
  Tracer::Scope root(&tracer_, "bench", "core_replay", trace);
  uint64_t stats_ns = 0, rank_ns = 0, compress_ns = 0, zone_ns = 0;
  uint64_t chunks = 0;
  for (int c = 0; c < kNumColumns; ++c) {
    for (uint64_t b = 0; b < kBaseRows; b += kChunkRows) {
      const uint64_t e = std::min(kBaseRows, b + kChunkRows);
      const AnyColumn slice = data_->Slice(b, e)[static_cast<size_t>(c)];
      uint64_t t0 = NowNs();
      {
        Tracer::Scope span(&tracer_, "columnar", "ComputeStats", trace,
                           root.id());
        const recomp::ColumnStats stats =
            c == 4 ? recomp::ComputeStats(slice.As<uint64_t>())
                   : recomp::ComputeStats(slice.As<uint32_t>());
        if (stats.n != e - b) Wrong("ComputeStats row count");
      }
      uint64_t t1 = NowNs();
      stats_ns += t1 - t0;
      std::vector<recomp::CandidateEvaluation> ranked;
      {
        Tracer::Scope span(&tracer_, "core", "RankCandidates", trace,
                           root.id());
        ranked = Must(recomp::RankCandidates(slice), "RankCandidates");
      }
      t0 = NowNs();
      rank_ns += t0 - t1;
      if (ranked.empty()) Fatal("RankCandidates returned no candidate");
      {
        Tracer::Scope span(&tracer_, "core", "Compress", trace, root.id());
        Must(recomp::Compress(slice, ranked.front().descriptor), "Compress");
      }
      t1 = NowNs();
      compress_ns += t1 - t0;
      {
        Tracer::Scope span(&tracer_, "core", "ComputeZoneMap", trace,
                           root.id());
        volatile uint64_t sink = recomp::ComputeZoneMap(slice, b).max;
        (void)sink;
      }
      zone_ns += NowNs() - t1;
      ++chunks;
    }
  }
  const double n = static_cast<double>(chunks);
  PutLayer("core.stats_ms_per_chunk", MsOf(stats_ns) / n, "ms");
  PutLayer("core.analyze_ms_per_chunk", MsOf(rank_ns) / n, "ms",
           "RankCandidates");
  PutLayer("core.compress_ms_per_chunk", MsOf(compress_ns) / n, "ms");
  PutLayer("core.zonemap_us_per_chunk", static_cast<double>(zone_ns) / 1e3 / n,
           "us");

  // Fused decode bandwidth per shape over the set-up table's sealed chunks.
  const TableSnapshot& snap = scan_bases_.back();
  std::map<std::string, std::pair<double, double>> by_shape;  // bytes, ns
  for (int c = 0; c < kNumColumns; ++c) {
    const recomp::ChunkedCompressedColumn& col = snap.column(c).chunked();
    const double width = c == 4 ? 8.0 : 4.0;
    for (uint64_t i = 0; i < col.num_chunks(); ++i) {
      const recomp::CompressedColumn& chunk = col.chunk(i).column;
      const std::string shape =
          recomp::FusedShapeName(recomp::ClassifyFusedShape(chunk.root()));
      // Best of three: one decode of a 64Ki chunk is short enough that a
      // single preemption would dominate it.
      uint64_t best = ~uint64_t{0};
      for (int k = 0; k < 3; ++k) {
        const uint64_t t0 = NowNs();
        {
          Tracer::Scope span(&tracer_, "core", "FusedDecompress", trace,
                             root.id());
          Must(recomp::FusedDecompress(chunk), "FusedDecompress");
        }
        best = std::min(best, NowNs() - t0);
      }
      by_shape[shape].first += width * static_cast<double>(chunk.size());
      by_shape[shape].second += static_cast<double>(best);
    }
  }
  for (const char* shape : {"rle-ns", "ns", "patched-ns", "generic"}) {
    const auto it = by_shape.find(shape);
    PutLayer(std::string("core.decode_b_per_ns.") + shape,
             it == by_shape.end() ? 0.0
                                  : Ratio(it->second.first, it->second.second),
             "B/ns");
  }
  for (const auto& [shape, v] : by_shape) {
    Note("decode shape %s: %.0f bytes at %.3f B/ns", shape.c_str(), v.first,
         Ratio(v.first, v.second));
  }
}

/// Replays the kept scan queries of each class through the exec layer's
/// per-operator entry points, one operator at a time: SelectCompressed on
/// the date band; GetAtBatch of qty at the selected rows, which the sparse
/// class then filters on its qty band; and the aggregates over the rows
/// that match, as GetAtBatch of price (and of amount for the dense class)
/// summed. Each step is checked against the oracle.
void Bench::ExecReplay() {
  const TableSnapshot& snap = scan_bases_.back();
  const auto& date = Must(snap.column("date"), "column")->chunked();
  const auto& qty = Must(snap.column("qty"), "column")->chunked();
  const auto& price = Must(snap.column("price"), "column")->chunked();
  const auto& amount = Must(snap.column("amount"), "column")->chunked();
  const char* names[2] = {"sparse", "dense"};
  for (int cls = 0; cls < 2; ++cls) {
    const std::vector<Query>& queries = cls == 0 ? replay_sparse_ : replay_dense_;
    std::vector<double> select_ms;
    std::vector<double> aggregate_ms;
    double gather_ns = 0.0;
    double gather_rows = 0.0;
    for (const Query& q : queries) {
      const Digest want = Expect(*data_, q, snap.rows());
      const uint64_t trace = tracer_.NewTrace();
      Tracer::Scope root(&tracer_, "bench", "exec_replay", trace);
      uint64_t t0 = NowNs();
      recomp::exec::ChunkedSelectionResult selected;
      {
        Tracer::Scope span(&tracer_, "exec", "SelectCompressed", trace,
                           root.id());
        selected = Must(recomp::exec::SelectCompressed(
                            date, {q.date_lo, q.date_hi}, ctx_),
                        "SelectCompressed");
      }
      uint64_t t1 = NowNs();
      select_ms.push_back(MsOf(t1 - t0));
      const std::vector<uint64_t> rows(selected.positions.begin(),
                                       selected.positions.end());
      std::vector<recomp::exec::PointResult> values;
      {
        Tracer::Scope span(&tracer_, "exec", "GetAtBatch", trace, root.id());
        values = Must(recomp::exec::GetAtBatch(qty, rows, ctx_), "GetAtBatch");
      }
      gather_ns += static_cast<double>(NowNs() - t1);
      gather_rows += static_cast<double>(rows.size());
      if (values.size() != rows.size()) Wrong("GetAtBatch size");
      std::vector<uint64_t> matched;
      for (size_t i = 0; i < values.size(); ++i) {
        if (!q.qty_filter ||
            (values[i].value >= q.qty_lo && values[i].value <= q.qty_hi)) {
          matched.push_back(rows[i]);
        }
      }
      if (matched.size() != want.rows_matched) {
        Wrong(std::string("replayed ") + names[cls] +
              " selection differs from the oracle");
      }
      std::vector<const recomp::ChunkedCompressedColumn*> summed = {&price};
      if (q.sum_amount) summed.push_back(&amount);
      std::vector<uint64_t> sums;
      t0 = NowNs();
      {
        Tracer::Scope span(&tracer_, "exec", "Aggregate", trace, root.id());
        for (const recomp::ChunkedCompressedColumn* column : summed) {
          uint64_t sum = 0;
          for (const auto& v : Must(recomp::exec::GetAtBatch(*column, matched,
                                                             ctx_),
                                    "GetAtBatch")) {
            sum += v.value;
          }
          sums.push_back(sum);
        }
      }
      aggregate_ms.push_back(MsOf(NowNs() - t0));
      if (sums != want.aggregates) {
        Wrong(std::string("replayed ") + names[cls] +
              " aggregates differ from the oracle");
      }
    }
    const std::string cls_name = names[cls];
    PutLayer("exec.select_ms." + cls_name, Median(select_ms), "ms",
             "SelectCompressed on the date band, median");
    PutLayer("exec.gather_ns_per_row." + cls_name,
             Ratio(gather_ns, gather_rows), "ns", "GetAtBatch of qty");
    PutLayer("exec.aggregate_ms." + cls_name, Median(aggregate_ms), "ms",
             "sums over the matched rows, median");
  }
}

/// The traced run minus the untraced run over the same scan queries: the
/// kept sparse queries (short, so a span's cost is not lost in the noise
/// of a 100 ms dense scan), in back-to-back untraced and traced passes.
/// Reported as the median over pass pairs of traced / untraced - 1, so a
/// stall in one pass moves one pair only.
void Bench::TraceOverhead() {
  constexpr int kPassPairs = 20;
  const TableSnapshot& snap = scan_bases_.back();
  const auto pass = [&](bool traced) {
    tracer_.set_enabled(traced);
    const uint64_t t0 = NowNs();
    for (const Query& q : replay_sparse_) {
      const uint64_t trace = tracer_.NewTrace();
      Tracer::Scope root(&tracer_, "bench", "scan_query", trace);
      Tracer::Scope span(&tracer_, "exec", "Scan", trace, root.id());
      Must(recomp::exec::Scan(snap, q.Spec(), ctx_), "Scan");
    }
    return static_cast<double>(NowNs() - t0);
  };
  std::vector<double> ratios;
  for (int pair = 0; pair < kPassPairs; ++pair) {
    const double untraced = pass(false);
    ratios.push_back(pass(true) / untraced - 1.0);
  }
  tracer_.set_enabled(true);
  PutLayer("trace.overhead_pct", 100.0 * Median(ratios), "%",
           "median over pass pairs, kept sparse scans traced vs untraced");
}

// --- Output ------------------------------------------------------------------------

void PrintMetrics(const std::vector<Metric>& metrics, const char* kind) {
  for (const Metric& m : metrics) {
    std::printf("%s %-40s %16.6f %-8s %s\n", kind, m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
}

void Bench::PrintResult() {
  const std::vector<Metric>& reported = opt_.trace ? layer_ : e2e_;
  std::string json = "{\"correct\": ";
  json += correct_ ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted_);
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < reported.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", reported[i].name.c_str(),
                  reported[i].value, reported[i].unit.c_str());
    json += buf;
  }
  json += "}}";
  std::puts(json.c_str());
}

int Bench::Main() {
  const uint64_t run_start = NowNs();
  // serve_live's fixed-rate phase, the scan phase and the ingest phase run
  // in kSlices interleaved rounds, and their latency figures are medians
  // over windows or slices: the host's slow spells, which last seconds,
  // then fall on every phase alike and move each figure little. The serve
  // slices append to the set-up table; the scan slices read snapshots
  // taken before any append; each ingest pass loads a fresh table. The
  // ladder, which overloads the service on purpose, runs last.
  Setup();
  StartService();
  for (int slice = 0; slice < kSlices; ++slice) {
    ServeSlice(slice);
    ScanSlice(slice);
    IngestSlice(slice);
  }
  IngestReport();
  ServeReport();
  ScanReport();
  MaxRatePhase();
  if (opt_.trace) {
    CoreReplay();
    ExecReplay();
    TraceOverhead();
    std::map<std::string, uint64_t> self = tracer_.SelfTimeByLayer();
    for (const char* layer :
         {"bench", "gen", "columnar", "core", "exec", "store", "service"}) {
      PutLayer(std::string("self_ms.") + layer, MsOf(self[layer]), "ms",
               "span self time");
    }
    const std::string path = opt_.trace_dir + "/trace-" + opt_.workload +
                             "-seed" + std::to_string(opt_.seed) + ".json";
    if (tracer_.WriteJson(path)) {
      Note("trace: %zu spans written to %s", tracer_.spans().size(),
           path.c_str());
    } else {
      Note("trace: could not write %s", path.c_str());
    }
  }
  PrintMachineNote();
  Note("run: workload=%s seconds=%.1f trace=%d wall_s=%.2f attempted=%llu "
       "failed=%llu failed_frac=%.6f",
       opt_.workload.c_str(), opt_.seconds, opt_.trace ? 1 : 0,
       SecondsOf(NowNs() - run_start),
       static_cast<unsigned long long>(attempted_),
       static_cast<unsigned long long>(failed_),
       Ratio(static_cast<double>(failed_), static_cast<double>(attempted_)));
  PrintMetrics(e2e_, opt_.trace ? "traced-e2e" : "e2e");
  PrintMetrics(e2e_ungated_, opt_.trace ? "traced-e2e-ungated" : "e2e-ungated");
  if (opt_.trace) PrintMetrics(layer_, "layer");
  std::fflush(stdout);
  if (invalid_) {
    std::fprintf(stderr, "perfbench: run invalid (load generator fell behind)\n");
    return 3;
  }
  PrintResult();
  return correct_ ? 0 : 1;
}

bool ParseArgs(int argc, char** argv, Options* opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (arg == "--workload") {
      opt->workload = value;
    } else if (arg == "--seed") {
      opt->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      opt->seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      opt->trace = value == "1";
    } else if (arg == "--trace-dir") {
      opt->trace_dir = value;
    } else {
      return false;
    }
  }
  return (opt->workload == "ingest" || opt->workload == "scan" ||
          opt->workload == "serve_live") &&
         opt->seconds > 0.0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options options;
  options.heap_retained = perfbench::RetainFreedMemory();
  if (!perfbench::ParseArgs(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: perfbench_harness --workload ingest|scan|serve_live "
                 "--seed N --seconds S --trace 0|1 [--trace-dir DIR]\n");
    return 2;
  }
  perfbench::Bench bench(std::move(options));
  return bench.Main();
}
