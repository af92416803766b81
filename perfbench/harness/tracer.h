// In-memory spans around the harness's own calls into the library's layers.
//
// The harness sees every layer from outside: a span opens just before a
// call into a layer's public function and closes when it returns. Each span
// holds its layer, name, start, end, and parent; every span of one query or
// append shares a trace id. Spans stay in memory until the run ends, then
// WriteJson dumps them and SelfTimeByLayer derives each layer's self time:
// a span's duration minus the part of it its child spans cover.
//
// A disabled tracer records nothing and reads no clock, so the untraced
// runs that produce the end-to-end numbers pay only a branch per span.

#ifndef PERFBENCH_HARNESS_TRACER_H_
#define PERFBENCH_HARNESS_TRACER_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Nanoseconds on the steady clock.
uint64_t NowNs();

struct SpanRecord {
  const char* layer = "";  ///< A string literal: "store", "exec", ...
  const char* name = "";   ///< A string literal: "AppendBatch", ...
  uint64_t trace = 0;
  uint64_t id = 0;
  uint64_t parent = 0;     ///< 0 for a root span.
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }

  /// A fresh trace id, shared by every span of one query or append (0 when
  /// disabled).
  uint64_t NewTrace();

  /// A span id for a span recorded later with Record, so its children can
  /// name it as their parent before it ends (0 when disabled).
  uint64_t NewSpanId();

  /// Records a finished span under `id` (a fresh id when 0) and returns
  /// the id (0 when disabled).
  uint64_t Record(const char* layer, const char* name, uint64_t trace,
                  uint64_t parent, uint64_t start_ns, uint64_t end_ns,
                  uint64_t id = 0);

  /// A span covering the scope's lifetime. Nest by passing the enclosing
  /// scope's id() as `parent`.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* layer, const char* name, uint64_t trace,
          uint64_t parent = 0);
    ~Scope();

    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// This span's id, reserved at open so children can name it.
    uint64_t id() const { return id_; }

   private:
    Tracer* tracer_;
    const char* layer_;
    const char* name_;
    uint64_t trace_;
    uint64_t parent_;
    uint64_t id_ = 0;
    uint64_t start_ns_ = 0;
  };

  std::vector<SpanRecord> spans() const;

  /// Self time per layer, in nanoseconds: for every span, its duration
  /// minus the union of its children's intervals clipped to it.
  std::map<std::string, uint64_t> SelfTimeByLayer() const;

  /// Writes every span as one JSON array; false on an I/O error.
  bool WriteJson(const std::string& path) const;

 private:
  bool enabled_;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
  uint64_t next_id_ = 1;
  uint64_t next_trace_ = 1;
};

/// SelfTimeByLayer over an explicit span list (exposed for the self-tests).
std::map<std::string, uint64_t> SelfTimeByLayer(
    const std::vector<SpanRecord>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_TRACER_H_
