#include "tracer.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <unordered_map>
#include <utility>

namespace perfbench {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

uint64_t Tracer::NewTrace() {
  if (!enabled_) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  return next_trace_++;
}

uint64_t Tracer::NewSpanId() {
  if (!enabled_) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

uint64_t Tracer::Record(const char* layer, const char* name, uint64_t trace,
                        uint64_t parent, uint64_t start_ns, uint64_t end_ns,
                        uint64_t id) {
  if (!enabled_) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  if (id == 0) id = next_id_++;
  spans_.push_back({layer, name, trace, id, parent, start_ns, end_ns});
  return id;
}

Tracer::Scope::Scope(Tracer* tracer, const char* layer, const char* name,
                     uint64_t trace, uint64_t parent)
    : tracer_(tracer->enabled() ? tracer : nullptr),
      layer_(layer),
      name_(name),
      trace_(trace),
      parent_(parent) {
  if (tracer_ == nullptr) return;
  id_ = tracer_->NewSpanId();
  start_ns_ = NowNs();
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  const uint64_t end_ns = NowNs();
  std::lock_guard<std::mutex> lock(tracer_->mu_);
  tracer_->spans_.push_back(
      {layer_, name_, trace_, id_, parent_, start_ns_, end_ns});
}

std::vector<SpanRecord> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::map<std::string, uint64_t> Tracer::SelfTimeByLayer() const {
  return perfbench::SelfTimeByLayer(spans());
}

std::map<std::string, uint64_t> SelfTimeByLayer(
    const std::vector<SpanRecord>& spans) {
  std::unordered_map<uint64_t, std::vector<std::pair<uint64_t, uint64_t>>>
      children;
  for (const SpanRecord& s : spans) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  std::map<std::string, uint64_t> self;
  for (const SpanRecord& s : spans) {
    const uint64_t duration = s.end_ns - s.start_ns;
    uint64_t covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      std::vector<std::pair<uint64_t, uint64_t>>& kids = it->second;
      std::sort(kids.begin(), kids.end());
      uint64_t cursor = s.start_ns;
      for (const auto& [begin, end] : kids) {
        const uint64_t lo = std::max(begin, cursor);
        const uint64_t hi = std::min(end, s.end_ns);
        if (hi > lo) {
          covered += hi - lo;
          cursor = hi;
        }
      }
    }
    self[s.layer] += duration - std::min(covered, duration);
  }
  return self;
}

bool Tracer::WriteJson(const std::string& path) const {
  const std::vector<SpanRecord> all = spans();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("[\n", f);
  for (size_t i = 0; i < all.size(); ++i) {
    const SpanRecord& s = all[i];
    std::fprintf(f,
                 "{\"layer\":\"%s\",\"name\":\"%s\",\"trace\":%llu,"
                 "\"id\":%llu,\"parent\":%llu,\"start_ns\":%llu,"
                 "\"end_ns\":%llu}%s\n",
                 s.layer, s.name, static_cast<unsigned long long>(s.trace),
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns),
                 i + 1 == all.size() ? "" : ",");
  }
  std::fputs("]\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
